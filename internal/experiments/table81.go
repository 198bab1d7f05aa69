package experiments

import (
	"fmt"

	"spinal/internal/ofdm"
	"spinal/internal/sim"
)

// Table8_1 reproduces Table 8.1: empirical PAPR of 802.11a/g OFDM with
// constellations of very different densities. The paper's point — OFDM
// obscures all but negligible differences, so dense spinal constellations
// are free — shows as near-identical rows.
func Table8_1(cfg Config) []*Table {
	trials := 200000
	if cfg.Quick {
		trials = 30000
	}
	rows := []struct {
		name string
		src  ofdm.ConstellationSource
	}{
		{"QAM-4", ofdm.QAMSource(4)},
		{"QAM-64", ofdm.QAMSource(64)},
		{"QAM-2^20", ofdm.QAMSource(1 << 20)},
		{"Trunc. Gaussian β=2", ofdm.TruncGaussianSource(2)},
	}
	t := &Table{
		Name:   "table8-1",
		Title:  fmt.Sprintf("802.11a/g OFDM PAPR (%d symbols per row; paper: 5M)", trials),
		Header: []string{"constellation", "mean PAPR (dB)", "99.99% below (dB)"},
	}
	results := sim.Parallel(len(rows), func(i int) ofdm.PAPRStats {
		return ofdm.MeasurePAPR(rows[i].src, trials, 4, cfg.Seed+int64(i))
	})
	for i, r := range rows {
		t.AddRow(r.name, f2(results[i].MeanDB), f2(results[i].P9999DB))
	}
	return []*Table{t}
}
