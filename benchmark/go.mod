module noelle/benchmark

go 1.24

require noelle v0.0.0

replace noelle => ../
