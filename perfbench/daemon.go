package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"smallbuffers/internal/service"
)

// daemon is an in-process service behind a loopback listener.
type daemon struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon(cfg service.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(cfg)
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop shuts the listener, cancels the service's runs and waits for the
// serving goroutine to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The fleet coordinator's client uses http.DefaultTransport. A
	// connection it dialled but never used counts as new, not idle, and
	// would hold Shutdown for five seconds; closing the client's idle
	// connections first ends it.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = d.srv.Shutdown(ctx) // a timeout only means idle connections were force-closed
	d.svc.Close()
	<-d.done
}

// newClient returns an HTTP client that opens at most nproc connections
// to any daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
}

// postRun submits a scenario body and decodes the report. query is
// appended to the URL (e.g. "?wait=0").
func postRun(ctx context.Context, c *http.Client, base, query string, body []byte) (*service.Report, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs"+query, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var rep service.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("POST /v1/runs: %w", err)
	}
	return &rep, resp.StatusCode, nil
}

// streamRun follows a run's NDJSON stream, calling onCell at each cell
// record's arrival, and returns the closing summary's report.
func streamRun(ctx context.Context, c *http.Client, base, id string, onCell func()) (*service.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream frame: %w", err)
		}
		switch ev.Type {
		case "cell":
			onCell()
		case "summary":
			var rep service.Report
			if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
				return nil, fmt.Errorf("stream summary: %w", err)
			}
			return &rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream of %s ended without a summary", id)
}

// inFlight scrapes the daemon's aqtserve_runs_in_flight gauge.
func inFlight(ctx context.Context, c *http.Client, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "aqtserve_runs_in_flight "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return int(f), err
		}
	}
	return 0, fmt.Errorf("/metrics has no aqtserve_runs_in_flight")
}
