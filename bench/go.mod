module enduratrace/bench

go 1.24

require enduratrace v0.0.0

replace enduratrace => ../
