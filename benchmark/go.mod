module gedlib/benchmark

go 1.24

require gedlib v0.0.0

replace gedlib => ../
