// Command serve_smoke is the CI smoke stage for paratreet-serve: it
// builds the daemon, starts it on an ephemeral port, issues kNN and
// range queries over HTTP, scrapes /metrics and checks the Prometheus
// exposition is well formed, verifies the /healthz vs /readyz split
// through a graceful SIGTERM drain (readiness drops to 503 during the
// -drain-grace window, exit 0 with the drain banner), and finally runs
// a second daemon under an impossible SLO to prove the watchdog flips
// readiness and counts breaches. Run from the repository root:
//
//	go run ./scripts
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve smoke:", err)
		os.Exit(1)
	}
	fmt.Println("serve smoke passed")
}

func run() error {
	dir, err := os.MkdirTemp("", "paratreet-serve-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "paratreet-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/paratreet-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if err := smokeQueryAndDrain(bin); err != nil {
		return err
	}
	return smokeSLOBreach(bin)
}

// startDaemon launches the binary and waits for the listening banner,
// returning the base URL and the stdout scanner (positioned after the
// banner) for the caller to keep draining.
func startDaemon(bin string, extra ...string) (*exec.Cmd, string, *bufio.Scanner, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-n", "4000", "-procs", "2", "-wpp", "2",
		"-batch", "8"}, extra...)
	daemon := exec.Command(bin, args...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return nil, "", nil, err
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, "", nil, err
	}
	var base string
	var banner []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		banner = append(banner, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		daemon.Process.Kill()
		return nil, "", nil, fmt.Errorf("no listening banner; daemon output: %q", banner)
	}
	return daemon, base, sc, nil
}

func get(base, path string) (int, string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, buf.String(), nil
}

func smokeQueryAndDrain(bin string) error {
	daemon, base, sc, err := startDaemon(bin, "-drain-grace", "2s")
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	// Liveness and readiness are both up before traffic.
	if code, body, err := get(base, "/healthz"); err != nil || code != http.StatusOK {
		return fmt.Errorf("pre-drain /healthz: %d %s (%v)", code, body, err)
	}
	if code, body, err := get(base, "/readyz"); err != nil || code != http.StatusOK {
		return fmt.Errorf("pre-drain /readyz: %d %s (%v)", code, body, err)
	}

	post := func(path, body string, out any) error {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, buf.Bytes())
		}
		return json.Unmarshal(buf.Bytes(), out)
	}
	var knn struct {
		Count  int `json:"count"`
		Timing struct {
			BatchSize int `json:"batch_size"`
		} `json:"timing"`
	}
	if err := post("/query/knn", `{"pos":[0.5,0.5,0.5],"k":8}`, &knn); err != nil {
		return err
	}
	if knn.Count != 8 || knn.Timing.BatchSize < 1 {
		return fmt.Errorf("knn answered count=%d batch=%d, want 8 hits", knn.Count, knn.Timing.BatchSize)
	}
	var rng struct {
		Count int `json:"count"`
		Hits  []struct {
			Dist float64 `json:"dist"`
		} `json:"hits"`
	}
	if err := post("/query/range", `{"pos":[0.5,0.5,0.5],"radius":0.25}`, &rng); err != nil {
		return err
	}
	if rng.Count != len(rng.Hits) {
		return fmt.Errorf("range count %d != %d hits", rng.Count, len(rng.Hits))
	}
	for _, h := range rng.Hits {
		if h.Dist > 0.25 {
			return fmt.Errorf("range hit at dist %v outside radius", h.Dist)
		}
	}

	// /stats carries each sketch (quantiles with buckets) once: the
	// separate histograms key is gone.
	code, body, err := get(base, "/stats")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("/stats: %d (%v)", code, err)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		return fmt.Errorf("/stats JSON: %w", err)
	}
	if _, ok := stats["histograms"]; ok {
		return fmt.Errorf("/stats still has a histograms key")
	}

	// Scrape /metrics after traffic and lint the exposition.
	code, body, err = get(base, "/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("/metrics: %d (%v)", code, err)
	}
	if err := checkExposition(body); err != nil {
		return fmt.Errorf("/metrics exposition: %w", err)
	}

	// Graceful drain: SIGTERM drops /readyz to 503 during the grace
	// window while the process is still alive and serving.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			fmt.Fprintln(&b, sc.Text())
		}
		rest <- b.String()
	}()
	saw503 := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		code, body, err := get(base, "/readyz")
		if err != nil {
			break // listener already closed; must have seen the 503 first
		}
		if code == http.StatusServiceUnavailable && strings.Contains(body, `"draining":true`) {
			saw503 = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !saw503 {
		return fmt.Errorf("never observed /readyz 503 during the drain-grace window")
	}

	var tail string
	select {
	case tail = <-rest:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not drain within 30s")
	}
	if err := daemon.Wait(); err != nil {
		return fmt.Errorf("daemon exit after SIGTERM: %w\noutput:\n%s", err, tail)
	}
	if !strings.Contains(tail, "drained") {
		return fmt.Errorf("drain banner missing from shutdown output:\n%s", tail)
	}
	return nil
}

// smokeSLOBreach runs a daemon under an objective no real request can
// meet and checks the watchdog drops readiness and counts the breach.
func smokeSLOBreach(bin string) error {
	daemon, base, sc, err := startDaemon(bin,
		"-slo-p99", "1ns", "-slo-min-samples", "1",
		"-slo-window", "30s", "-slo-interval", "50ms")
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()
	drained := make(chan struct{})
	go func() { // keep stdout drained so the daemon never blocks on a full pipe
		defer close(drained)
		for sc.Scan() {
		}
	}()

	resp, err := http.Post(base+"/query/knn", "application/json",
		strings.NewReader(`{"pos":[0.5,0.5,0.5],"k":4}`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("slo daemon query: %d", resp.StatusCode)
	}

	breached := false
	var last string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		code, body, err := get(base, "/readyz")
		if err != nil {
			return err
		}
		last = body
		if code == http.StatusServiceUnavailable && strings.Contains(body, `"breached":true`) {
			breached = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !breached {
		return fmt.Errorf("watchdog never breached an impossible SLO; last /readyz: %s", last)
	}
	code, body, err := get(base, "/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("slo daemon /metrics: %d (%v)", code, err)
	}
	re := regexp.MustCompile(`(?m)^serve_slo_breaches_total (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return fmt.Errorf("serve_slo_breaches_total missing from exposition")
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		return fmt.Errorf("serve_slo_breaches_total = %s, want >= 1", m[1])
	}
	daemon.Process.Signal(syscall.SIGTERM)
	daemon.Wait()
	<-drained
	return nil
}

// checkExposition lints Prometheus text exposition: every sample line
// parses, every family has HELP and TYPE comments before its samples,
// histogram buckets carry ascending le with a +Inf terminal, every
// "_summary" family has a histogram sibling with the same _count (two
// views of one sketch), and the serve telemetry families are all present.
func checkExposition(out string) error {
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		"# TYPE serve_request_ns histogram",
		"# TYPE serve_request_ns_summary summary",
		`serve_request_ns_summary{quantile="0.99"}`,
		"# TYPE serve_queue_depth gauge",
		"# TYPE go_heap_bytes gauge",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(out, want) {
			return fmt.Errorf("missing %q", want)
		}
	}
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)
	helped := map[string]bool{}
	typed := map[string]bool{}
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_count", "_sum"} {
			if f, ok := strings.CutSuffix(name, suf); ok {
				return f
			}
		}
		return name
	}
	prevLe := map[string]int64{}
	sawInf := map[string]bool{}
	counts := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if f, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(f)[0]] = true
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.Fields(f)[0]] = true
			continue
		}
		if !sampleRe.MatchString(line) {
			return fmt.Errorf("malformed sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		fam := family(name)
		if !helped[fam] || !typed[fam] {
			return fmt.Errorf("sample %q before its HELP/TYPE comments", line)
		}
		if strings.HasSuffix(name, "_count") {
			counts[fam] = line[strings.LastIndexByte(line, ' ')+1:]
		}
		if strings.HasSuffix(name, "_bucket") {
			i := strings.Index(line, `le="`)
			if i < 0 {
				return fmt.Errorf("bucket line without le label: %q", line)
			}
			leStr := line[i+4:]
			leStr = leStr[:strings.Index(leStr, `"`)]
			if leStr == "+Inf" {
				sawInf[fam] = true
				continue
			}
			le, err := strconv.ParseInt(leStr, 10, 64)
			if err != nil {
				return fmt.Errorf("non-integer le in %q", line)
			}
			if prev, ok := prevLe[fam]; ok && le <= prev {
				return fmt.Errorf("le not ascending for %s at %q", fam, line)
			}
			prevLe[fam] = le
		}
	}
	for fam := range prevLe {
		if !sawInf[fam] {
			return fmt.Errorf("histogram %s missing +Inf bucket", fam)
		}
	}
	for fam, n := range counts {
		if hist, ok := strings.CutSuffix(fam, "_summary"); ok && counts[hist] != n {
			return fmt.Errorf("summary %s _count %s, histogram sibling %s _count %q", fam, n, hist, counts[hist])
		}
	}
	return nil
}
