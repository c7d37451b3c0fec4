module kdash/bench

go 1.24

require kdash v0.0.0

replace kdash => ../
