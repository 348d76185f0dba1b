package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one mptcpd process serving a -store directory.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	ready  time.Duration // exec until /healthz answered 200
}

// startDaemon starts mptcpd over store on a free loopback port and
// waits until /healthz answers 200.
func startDaemon(bin, store string, hc *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{url: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", store)
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mptcpd: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if resp, err := hc.Get(d.url + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mptcpd did not answer /healthz: %s", d.stderr.String())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within a minute, and returns its resource usage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	done := make(chan error, 1)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-done
		err = errors.New("mptcpd ignored SIGTERM for a minute")
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if err != nil {
		return ru, fmt.Errorf("mptcpd: %v: %s", err, d.stderr.String())
	}
	return ru, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client is the benchmark's single closed-loop HTTP client. Every
// request counts as an operation; a non-2xx answer fails it.
type client struct {
	r      *run
	hc     *http.Client
	non2xx int
}

func (c *client) do(method, url string, body []byte) ([]byte, error) {
	c.r.attempted++
	resp, err := c.hc.Do(mustRequest(method, url, body))
	if err != nil {
		c.r.failed++
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		c.non2xx++
		c.r.failed++
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

func mustRequest(method, url string, body []byte) *http.Request {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		panic(err) // the benchmark builds every URL itself
	}
	return req
}

// status is the part of mptcpd's campaign status the benchmark reads.
type status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	CacheHits int64  `json:"cache_hits"`
}

// health is the part of mptcpd's /healthz the benchmark reads.
type health struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Store       *struct {
		CorruptRecords int `json:"corrupt_records"`
	} `json:"store"`
}

// phase is one submission: submit, follow the rows to the end, fetch
// both exports.
type phase struct {
	csv, json []byte
	status    status
	rows      int

	submit, firstRow, rowsTime, exportCSV, exportJSON time.Duration
	total                                             time.Duration // submit to both exports in hand
}

// submit runs one phase against d. Spans, when tr is non-nil, mark
// each call.
func (c *client) submit(d *daemon, spec []byte, tr *tracer, trace, name string) (*phase, error) {
	p := &phase{}
	root := tr.begin("daemon."+name, trace, "", 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("daemon.submit", trace, name, root)
	b, err := c.do(http.MethodPost, d.url+"/v1/campaigns", spec)
	tr.end(sp)
	p.submit = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &p.status); err != nil {
		return nil, fmt.Errorf("submit answer: %w", err)
	}
	base := d.url + "/v1/campaigns/" + p.status.ID

	// Follow the progress feed until the campaign is done.
	sp = tr.begin("daemon.rows", trace, name, root)
	t1 := time.Now()
	c.r.attempted++
	resp, err := c.hc.Do(mustRequest(http.MethodGet, base+"/rows", nil))
	if err != nil {
		c.r.failed++
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if p.rows == 0 {
			p.firstRow = time.Since(t1)
		}
		p.rows++
	}
	resp.Body.Close()
	p.rowsTime = time.Since(t1)
	tr.end(sp)
	if err := sc.Err(); err != nil || resp.StatusCode != http.StatusOK {
		c.r.failed++
		if resp.StatusCode/100 != 2 {
			c.non2xx++
		}
		return nil, fmt.Errorf("rows: %s: %v", resp.Status, err)
	}

	for _, e := range []struct {
		name string
		dst  *[]byte
		dur  *time.Duration
	}{{"export.csv", &p.csv, &p.exportCSV}, {"export.json", &p.json, &p.exportJSON}} {
		sp := tr.begin("daemon."+e.name, trace, name, root)
		t := time.Now()
		*e.dst, err = c.do(http.MethodGet, base+"/"+e.name, nil)
		*e.dur = time.Since(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	p.total = time.Since(t0)

	b, err = c.do(http.MethodGet, base, nil)
	if err != nil {
		return nil, err
	}
	return p, json.Unmarshal(b, &p.status)
}

func (c *client) health(d *daemon) (*health, error) {
	b, err := c.do(http.MethodGet, d.url+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	var h health
	return &h, json.Unmarshal(b, &h)
}
