//go:build !amd64

package hw

// buildDistTables is BuildDistTables over len(x) ≤ len(dI), len(dQ)
// entries: the portable loop behind the amd64 SSE2 kernel.
func buildDistTables(q Quantizer, yI, yQ float64, x []float64, dI, dQ []int32) {
	for v, xv := range x {
		di := yI - xv
		dq := yQ - xv
		dI[v] = q.Quantize(di * di)
		dQ[v] = q.Quantize(dq * dq)
	}
}
