module radar/benchmark

go 1.22

require radar v0.0.0

replace radar => ../
