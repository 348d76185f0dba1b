package experiment

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mptcplab/internal/units"
)

// sameExportBits reports the first field where two exports differ,
// comparing floats by bit pattern; "" when they are bit-identical.
func sameExportBits(a, b []CellExport) string {
	if len(a) != len(b) {
		return "record count"
	}
	for i := range a {
		va, vb := reflect.ValueOf(a[i]), reflect.ValueOf(b[i])
		for f := 0; f < va.NumField(); f++ {
			x, y := va.Field(f), vb.Field(f)
			same := x.Interface() == y.Interface()
			if x.Kind() == reflect.Float64 {
				same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
			}
			if !same {
				return a[i].Config + "/" + va.Type().Field(f).Name
			}
		}
	}
	return ""
}

// TestExportHistoryIndependent pins Export to a pure function of the
// matrix: means used to be summed in whatever order the last
// order statistic left a sample, so a fresh WriteJSON and one after
// WriteCSV disagreed in the last bits of the RTT and OFO means.
func TestExportHistoryIndependent(t *testing.T) {
	fig4 := func() *Matrix { return SmallFlows(CampaignOpts{Reps: 4, Seed: 7, SampleProfiles: true}) }

	fresh := fig4()
	var j1 bytes.Buffer
	if err := WriteJSON(&j1, fresh); err != nil {
		t.Fatal(err)
	}

	afterCSV := fig4()
	if err := WriteCSV(io.Discard, afterCSV); err != nil {
		t.Fatal(err)
	}
	var j2 bytes.Buffer
	if err := WriteJSON(&j2, afterCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("WriteJSON on a fresh matrix differs from WriteJSON after WriteCSV")
	}

	m := fig4()
	first, second := m.Export(), m.Export()
	if d := sameExportBits(first, second); d != "" {
		t.Errorf("two successive Export calls differ at %s", d)
	}
	if d := sameExportBits(first, fresh.Export()); d != "" {
		t.Errorf("Export differs from the fresh matrix's at %s", d)
	}
}

// TestExportWorkersInvariant: the parallel sort phase is scheduling
// only; one matrix exports the same bits at any worker count.
func TestExportWorkersInvariant(t *testing.T) {
	one, four := syntheticFig4(11, 8), syntheticFig4(11, 8)
	one.Workers, four.Workers = 1, 4
	if d := sameExportBits(one.Export(), four.Export()); d != "" {
		t.Errorf("Workers=1 and Workers=4 exports differ at %s", d)
	}
}

// syntheticFig4 builds a matrix shaped like a fig4 campaign — the same
// 8 rows x 4 sizes and, per run, one download time, share and loss
// rate plus a per-packet RTT and out-of-order sample whose sizes track
// the file size — from a seeded RNG, without simulating anything.
func syntheticFig4(seed int64, reps int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	sizes := []units.ByteCount{8 * units.KB, 64 * units.KB, 512 * units.KB, 4 * units.MB}
	labels := []string{"SP-WiFi", "SP-ATT", "MP-2 (coupled)", "MP-2 (olia)", "MP-2 (reno)",
		"MP-4 (coupled)", "MP-4 (olia)", "MP-4 (reno)"}
	m := &Matrix{ID: "fig4", Sizes: sizes}
	var wifi, cell, ofo []float64 // one run's per-packet samples
	for r, label := range labels {
		row := MatrixRow{Label: label}
		for _, size := range sizes {
			c := newCell(RunConfig{})
			pkts := int(size)/1448 + 1
			for rep := 0; rep < reps; rep++ {
				share := rng.Float64()
				switch r {
				case 0:
					share = 0
				case 1:
					share = 1
				}
				wifi, cell, ofo = wifi[:0], cell[:0], ofo[:0]
				for p := 0; p < pkts; p++ {
					rtt := 20 + rng.ExpFloat64()*40
					if rng.Float64() < share {
						cell = append(cell, rtt+40)
					} else {
						wifi = append(wifi, rtt)
					}
					if r >= 2 {
						d := 0.0
						if rng.Float64() < 0.4 {
							d = rng.ExpFloat64() * 80
						}
						ofo = append(ofo, d)
					}
				}
				c.Times.Add(float64(pkts)*0.002 + rng.Float64())
				c.Share.Add(share)
				c.WiFiLoss.Add(rng.Float64())
				c.CellLoss.Add(rng.Float64())
				c.WiFiRTT.AddAll(wifi)
				c.CellRTT.AddAll(cell)
				c.OFO.AddAll(ofo)
			}
			row.Cells = append(row.Cells, c)
		}
		m.Rows = append(m.Rows, row)
	}
	return m
}

// BenchmarkMatrixExport times one Export of a fresh 32-rep fig4-shaped
// matrix (~1.5M pooled samples): the parallel sort phase plus record
// building. Building the matrix is excluded.
func BenchmarkMatrixExport(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := syntheticFig4(int64(i), 32)
		b.StartTimer()
		m.Export()
	}
}
