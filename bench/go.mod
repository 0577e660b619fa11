module threelc/bench

go 1.22

require threelc v0.0.0

replace threelc => ../
