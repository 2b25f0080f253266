module multijoin/bench

go 1.24

require multijoin v0.0.0

replace multijoin => ../
