module parahash/benchmark

go 1.22

require parahash v0.0.0

replace parahash => ../
