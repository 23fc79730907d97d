module gobad/bench

go 1.22

require gobad v0.0.0

replace gobad => ../
