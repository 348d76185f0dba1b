package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// daemonCycle is one pass of the daemon-store workload.
type daemonCycle struct {
	cold, warm, restart *phase
	health              *health
	ready               time.Duration // exec until /healthz 200 on the restart
	daemonCPU           time.Duration // user+sys of both daemon lifetimes
	peakMB              float64
}

// runDaemonCycle starts mptcpd on an empty store, submits the fig4
// campaign at reps cold and again warm, restarts the daemon over the
// same store and submits once more, and checks every export against
// ref, the same campaign run in process.
func (r *run) runDaemonCycle(c *client, reps int, ref *campaignOut, tr *tracer, trace string) (*daemonCycle, error) {
	dir, err := r.scratch("daemon-store")
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(map[string]any{"experiment": "fig4", "reps": reps, "seed": r.seed})
	if err != nil {
		return nil, err
	}
	out := &daemonCycle{}
	var live *daemon
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	// lifetime starts the daemon over the store, submits once per
	// phase, reads /healthz and stops the daemon again.
	lifetime := func(names ...string) ([]*phase, error) {
		sp := tr.begin("daemon.start", trace, "", 0)
		d, err := startDaemon(r.mptcpd, dir, c.hc)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		live = d
		out.ready = d.ready
		var ps []*phase
		for _, name := range names {
			p, err := c.submit(d, spec, tr, trace, name)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		if out.health, err = c.health(d); err != nil {
			return nil, err
		}
		live = nil
		sp = tr.begin("daemon.stop", trace, "", 0)
		ru, err := d.stop()
		tr.end(sp)
		if ru != nil {
			out.daemonCPU += rusageCPU(ru)
			out.peakMB = max(out.peakMB, float64(ru.Maxrss)/1024)
		}
		return ps, err
	}
	first, err := lifetime("cold", "warm")
	if err != nil {
		return nil, err
	}
	second, err := lifetime("restart")
	if err != nil {
		return nil, err
	}
	out.cold, out.warm, out.restart = first[0], first[1], second[0]
	c.hc.CloseIdleConnections()
	if out.health.Store == nil {
		return nil, fmt.Errorf("mptcpd -store reported no store on /healthz")
	}

	for _, p := range []struct {
		name string
		p    *phase
		hits bool
	}{{"cold", out.cold, false}, {"warm", out.warm, true}, {"restart", out.restart, true}} {
		r.sameBytes(trace+" "+p.name+" export.csv", p.p.csv, ref.csv)
		r.sameBytes(trace+" "+p.name+" export.json", p.p.json, ref.json)
		r.attempted++
		switch {
		case p.p.status.State != "done":
			r.problem("%s %s: campaign ended %s", trace, p.name, p.p.status.State)
		case p.p.rows != p.p.status.Total || p.p.status.Total != ref.jobs:
			r.problem("%s %s: %d rows streamed, %d runs, want %d", trace, p.name, p.p.rows, p.p.status.Total, ref.jobs)
		case p.hits && p.p.status.CacheHits != int64(p.p.status.Total):
			r.problem("%s %s: %d of %d runs answered from the store", trace, p.name, p.p.status.CacheHits, p.p.status.Total)
		}
	}
	r.attempted++
	if n := out.health.Store.CorruptRecords; n != 0 {
		r.problem("%s: %d corrupt store records after restart", trace, n)
	}
	return out, nil
}

// runDaemonStore measures mptcpd with a durable store: the cold phase
// simulates, encodes, stores and journals; the warm phase is answered
// from the cache with no simulation; the restart phase is answered
// from the store loaded off disk.
func runDaemonStore(r *run) error {
	ref, err := r.reference(r.scale.daemonReps, r.tr)
	if err != nil {
		return err
	}
	r.printDigest("daemon-store export.csv", ref.csv)
	r.printDigest("daemon-store export.json", ref.json)
	c := &client{r: r, hc: &http.Client{Timeout: 2 * time.Minute}}
	err = r.cycles(func(i int, traced bool) (time.Duration, error) {
		tr, trace := r.tracerFor(traced), fmt.Sprintf("daemon-c%d", i)
		c0, t0 := cpuNow(), time.Now()
		out, err := r.runDaemonCycle(c, r.scale.daemonReps, ref, tr, trace)
		if err != nil {
			return 0, err
		}
		wall, cpu := time.Since(t0), cpuNow()-c0+out.daemonCPU
		r.sample("wall_s", "s", wall.Seconds())
		r.sample("cpu_s", "s", cpu.Seconds())
		r.sample("setup_s", "s", out.ready.Seconds())
		r.sample("peak_rss_mb", "MB", out.peakMB)
		r.sample("cold_export_s", "s", out.cold.total.Seconds())
		r.sample("warm_export_s", "s", out.warm.total.Seconds())
		if traced {
			r.daemonLayers(out, c)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	if r.trace {
		return r.probes()
	}
	return nil
}

// reference runs the daemon's campaign spec in process, the output
// every daemon export must match. In a traced run it is profiled and
// its jobs are spanned: the daemon is a separate process, so the
// simulation layers of daemon-store are measured here.
func (r *run) reference(reps int, tr *tracer) (*campaignOut, error) {
	var ref *campaignOut
	var ms0, ms1 runtime.MemStats
	do := func() error {
		var err error
		runtime.ReadMemStats(&ms0)
		ref, err = r.runCampaign(tr, "reference", reps, nil)
		runtime.ReadMemStats(&ms1)
		return err
	}
	var err error
	if tr != nil {
		err = r.profiled(do)
	} else {
		err = do()
	}
	if err != nil {
		return nil, err
	}
	r.checkCampaign("in-process reference", ref, nil)
	if tr != nil {
		r.campaignLayers(ref, &ms0, &ms1)
		r.sizeLayers(tr.durations("fig4.job"))
	}
	return ref, nil
}

// daemonLayers records the daemon's per-call times, taken on the cold
// phase where every layer does work, and the store counters from
// /healthz after the restart.
func (r *run) daemonLayers(out *daemonCycle, c *client) {
	r.layer("daemon.submit_s", "s", out.cold.submit.Seconds())
	r.layer("daemon.first_row_s", "s", out.cold.firstRow.Seconds())
	r.layer("daemon.rows_s", "s", out.cold.rowsTime.Seconds())
	r.layer("daemon.export_csv_s", "s", out.cold.exportCSV.Seconds())
	r.layer("daemon.export_json_s", "s", out.cold.exportJSON.Seconds())
	r.layer("daemon.http_non2xx", "count", float64(c.non2xx))
	r.layer("store.hits", "count", float64(out.health.CacheHits))
	r.layer("store.misses", "count", float64(out.health.CacheMisses))
	r.layer("store.corrupt", "count", float64(out.health.Store.CorruptRecords))
}

// probeDaemon gives traced runs of the in-process workloads the daemon
// and store counters, from one daemon-store cycle of fig4 at 1 rep.
func (r *run) probeDaemon() error {
	const reps = 1
	ref, err := r.reference(reps, nil)
	if err != nil {
		return err
	}
	c := &client{r: r, hc: &http.Client{Timeout: 2 * time.Minute}}
	out, err := r.runDaemonCycle(c, reps, ref, r.tr, "daemon-probe")
	if err != nil {
		return err
	}
	r.daemonLayers(out, c)
	return nil
}
