// Command mldsperf is the MLDS benchmark: it drives the system through its
// public API under one of three workloads, checks every answer against an
// oracle, and prints the result as one JSON object on its last line.
//
// Usage (from the repository root):
//
//	bash mldsperf/run.sh --workload local-mix --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run of the same workload and
// seed. README.md explains the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's final line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for page files and journals
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(opts) (*result, error){
	"local-mix":     localMix,
	"remote-mix":    remoteMix,
	"paged-durable": pagedDurable,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "local-mix", "workload: local-mix, remote-mix or paged-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "mldsperf: unknown workload %q or bad --seconds\n", o.workload)
		os.Exit(2)
	}
	o.work = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mldsperf:", err)
		os.Exit(1)
	}
	stealAtStart = cpuTicks()
	res, err := run(o)
	os.RemoveAll(o.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mldsperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mldsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printEnv records the environment and the sample counts behind the
// result on a line of its own, before the result line.
func printEnv(o opts, samples map[string]any) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"revision":   revision(),
		"cpu_steal":  stealShare(stealAtStart, cpuTicks()),
		"samples":    samples,
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealAtStart is the CPU tick count when the run began.
var stealAtStart []uint64

// cpuTicks reads the machine-wide CPU tick counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, …), or nil.
func cpuTicks() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []uint64
	for _, x := range f[1:] {
		v, _ := strconv.ParseUint(x, 10, 64)
		out = append(out, v)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor took from this
// machine between two readings: on a shared host, the main reason two
// runs of the same code differ.
func stealShare(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := range a {
		if i < len(b) {
			total += b[i] - a[i]
		}
	}
	return ratio(float64(b[7]-a[7]), float64(total))
}

// revision names the code measured: the git commit run.sh found, if the
// checkout is a git work tree, and always a hash of the module's Go
// sources, which also identifies a checkout without .git.
func revision() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	tree := "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
	if rev := os.Getenv("MLDSPERF_GIT_REV"); rev != "" {
		return "git:" + rev + " " + tree
	}
	return tree
}

// heapMiB is the Go heap in use after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeIt runs f and returns its wall time in seconds. It collects garbage
// first, so the time is f's own work, not debt left by what ran before.
func timeIt(f func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
