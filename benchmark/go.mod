module fairrw/benchmark

go 1.22

require fairrw v0.0.0

replace fairrw => ../
