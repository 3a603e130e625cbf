module symmeter/benchmark

go 1.24

require symmeter v0.0.0

replace symmeter => ../
