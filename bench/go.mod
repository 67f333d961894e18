module pmemcpy/bench

go 1.24

require pmemcpy v0.0.0

replace pmemcpy => ../
