module turboflux/bench

go 1.22

require turboflux v0.0.0

replace turboflux => ../
