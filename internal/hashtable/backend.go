package hashtable

// KmerTable is the name Step 2's table had when it could be one of several.
//
// Deprecated: use *Table. benchmark/layers.go still declares its table with
// this name; it goes when that file moves to *Table.
type KmerTable = *Table

// NewBackend is New under the name Step 2 once chose a table with. The name
// argument is ignored: there is one table.
//
// Deprecated: use New. benchmark/layers.go still calls it; it goes when that
// file moves to New.
func NewBackend(_ string, k, capacity int) (*Table, error) {
	return New(k, capacity)
}
