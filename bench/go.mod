module subdex/bench

go 1.22

require subdex v0.0.0

replace subdex => ../
