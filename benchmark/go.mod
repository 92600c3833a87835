module paratreet/benchmark

go 1.24

require paratreet v0.0.0

replace paratreet => ../
