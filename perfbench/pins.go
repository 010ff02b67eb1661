package main

// pinned holds each workload's output digest at its default seed and full
// size, recorded when the benchmark was added: the FNV-1a digest of
// Curve.Format for sim_campaign and of the per-point merged metrics.Partial
// values for exec_campaign. A change that alters a simulated result fails
// these checks.
var pinned = map[string]uint64{
	"sim_campaign":  0x149f6e7737784fe2,
	"exec_campaign": 0x7ae9f966402f58c5,
}
