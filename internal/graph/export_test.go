package graph

// WriteV1 is the version-1 oracle, for the external tests.
var WriteV1 = writeV1

// WriteRunV1 is the version-1 run oracle, for the external tests.
var WriteRunV1 = writeRunV1
