package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sweep"
)

// probes time single layers directly, the same way in every traced
// run, and fill in the layer metrics the workload itself does not
// reach.
func (r *run) probes() error {
	values, err := r.probeTestbeds()
	if err != nil {
		return err
	}
	if err := r.probeStore(values); err != nil {
		return err
	}
	if _, ok := r.layers["daemon.submit_s"]; !ok {
		return r.probeDaemon()
	}
	return nil
}

// probeTestbeds builds the testbed of every fig4 cell (rep 0) with
// experiment.NewTestbed and runs the cell on it, then runs it again on
// one testbed recycled with Testbed.Reset and checks both results are
// identical. It records the build, reset and per-size run times and
// the access links' packet counters, and returns the results
// JSON-encoded as the store probe's values.
func (r *run) probeTestbeds() ([][]byte, error) {
	m, err := experiment.NewCampaign("fig4", experiment.CampaignOpts{Reps: 1, Seed: r.seed, Workers: 1, SampleProfiles: true})
	if err != nil {
		return nil, err
	}
	root := r.tr.begin("probe.testbeds", "probe", "", 0)
	defer r.tr.end(root)
	var builds, resets []float64
	runs := map[string][]float64{}
	var pkts, qdrops, mdrops uint64
	var values [][]byte
	var reused *experiment.Testbed
	for ri, row := range m.Rows {
		for ci, cell := range row.Cells {
			// The fig4 rows all run over the Comcast home WiFi and AT&T;
			// the campaign derives each run's seed with sweep.Seed.
			cfg := experiment.TestbedConfig{
				WiFi:              pathmodel.ComcastHome(),
				Cell:              pathmodel.ATT(),
				ServerSecondIface: cell.Config.Transport == experiment.MP4,
				SampleProfiles:    true,
				WarmRadio:         true,
				Seed:              sweep.Seed(r.seed, ri, ci, 0),
			}
			size := m.Sizes[ci].String()

			sp, t := r.tr.begin("probe.new_testbed", "probe", size, root), time.Now()
			fresh := experiment.NewTestbed(cfg)
			builds = append(builds, time.Since(t).Seconds())
			r.tr.end(sp)
			sp, t = r.tr.begin("probe.run", "probe", size, root), time.Now()
			res := fresh.Run(cell.Config)
			runs[size] = append(runs[size], time.Since(t).Seconds())
			r.tr.end(sp)
			for _, l := range []*netem.Link{fresh.WiFiUp, fresh.WiFiDown, fresh.CellUp, fresh.CellDown} {
				pkts += l.Stats.Sent
				qdrops += l.Stats.QueueDrop
				mdrops += l.Stats.MediumDrop
			}

			if reused == nil {
				reused = experiment.NewTestbed(cfg)
			} else {
				sp, t = r.tr.begin("probe.reset", "probe", size, root), time.Now()
				reused.Reset(cfg)
				resets = append(resets, time.Since(t).Seconds())
				r.tr.end(sp)
			}
			again := reused.Run(cell.Config)

			a, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(again)
			if err != nil {
				return nil, err
			}
			r.sameBytes(fmt.Sprintf("reset-testbed run of %s/%s", row.Label, size), b, a)
			values = append(values, a)
		}
	}
	r.layer("experiment.new_testbed_s", "s", median(builds))
	r.layer("experiment.setup_s", "s", median(resets))
	for _, size := range fig4Sizes {
		r.layerIfMissing("experiment.run_s."+size, "s", median(runs[size]))
	}
	r.layerIfMissing("netem.pkts", "count", float64(pkts))
	r.layerIfMissing("netem.queue_drops", "count", float64(qdrops))
	r.layerIfMissing("netem.medium_drops", "count", float64(mdrops))
	return values, nil
}

// probeStore writes storeRows values the size of a RunResult into a
// fresh sweep.Store, reads them back, and reopens the store, checking
// every value survives. Times are per MiB of values (put, get) or of
// segment files (open).
func (r *run) probeStore(values [][]byte) error {
	dir, err := r.scratch("store-probe")
	if err != nil {
		return err
	}
	root := r.tr.begin("probe.store", "probe", "", 0)
	defer r.tr.end(root)
	n := r.scale.storeRows
	keys := make([]string, n)
	var total int
	for i := range keys {
		if keys[i], err = sweep.Key(struct{ Row int }{i}, r.seed); err != nil {
			return err
		}
		total += len(values[i%len(values)])
	}
	mib := float64(total) / (1 << 20)

	st, err := sweep.OpenStore(dir, sweep.StoreOpts{})
	if err != nil {
		return err
	}
	sp, t := r.tr.begin("probe.store_put", "probe", "", root), time.Now()
	for i, k := range keys {
		st.Put(k, values[i%len(values)])
	}
	put := time.Since(t)
	r.tr.end(sp)
	sp, t = r.tr.begin("probe.store_get", "probe", "", root), time.Now()
	r.checkStore("store before reopen", st, keys, values)
	get := time.Since(t)
	r.tr.end(sp)
	if err := st.Close(); err != nil {
		return err
	}
	onDisk, err := dirSize(dir)
	if err != nil {
		return err
	}

	sp, t = r.tr.begin("probe.store_open", "probe", "", root), time.Now()
	st, err = sweep.OpenStore(dir, sweep.StoreOpts{})
	open := time.Since(t)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	defer st.Close()
	r.checkStore("reopened store", st, keys, values)
	if h := st.Health(); h.CorruptRecords != 0 || h.Entries != n {
		r.problem("reopened store: %d entries, %d corrupt records, want %d and 0", h.Entries, h.CorruptRecords, n)
	}

	r.layer("store.put_s_per_mb", "s/MiB", put.Seconds()/mib)
	r.layer("store.get_s_per_mb", "s/MiB", get.Seconds()/mib)
	r.layer("store.open_s_per_mb", "s/MiB", open.Seconds()/(float64(onDisk)/(1<<20)))
	r.layer("store.bytes_per_row", "B", float64(onDisk)/float64(n))
	return nil
}

// checkStore reads every key back and compares it with what was put.
func (r *run) checkStore(what string, st *sweep.Store, keys []string, values [][]byte) {
	for i, k := range keys {
		got, ok := st.GetRef(k)
		if !ok {
			r.attempted++
			r.problem("%s: row %d missing", what, i)
			continue
		}
		r.sameBytes(fmt.Sprintf("%s row %d", what, i), got, values[i%len(values)])
	}
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
