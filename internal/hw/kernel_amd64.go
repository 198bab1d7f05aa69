package hw

// buildDistTables is BuildDistTables over len(x) ≤ len(dI), len(dQ)
// entries, two SSE2 lanes at a time (kernel_amd64.s).
//
//go:noescape
func buildDistTables(q Quantizer, yI, yQ float64, x []float64, dI, dQ []int32)
