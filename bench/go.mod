module snoopy/bench

go 1.22

require snoopy v0.0.0

replace snoopy => ../
