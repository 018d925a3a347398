module texid/benchmark

go 1.22

require texid v0.0.0

replace texid => ../
