module zipg/benchmark

go 1.22

require zipg v0.0.0

replace zipg => ../
