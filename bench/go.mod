module placeless/bench

go 1.22

require placeless v0.0.0

replace placeless => ../
