package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// provenanceRecord pins what a result was measured on.
type provenanceRecord struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"heldOutSeed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Commit      string  `json:"commit"`
	// SourceSHA256 digests every Go source and module file of the
	// checkout outside vendor/, so results of identical code compare
	// even where no git metadata exists.
	SourceSHA256 string `json:"sourceSHA256"`
	GoVersion    string `json:"goVersion"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpuModel"`
}

func provenance(e *env) provenanceRecord {
	return provenanceRecord{
		Workload:     e.wl.name,
		Seed:         e.seed,
		HeldOutSeed:  heldOutSeed,
		Seconds:      e.seconds.Seconds(),
		Trace:        e.trace,
		Commit:       commit(e.root),
		SourceSHA256: sourceDigest(e.root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
	}
}

// commit names the checked-out commit: git's HEAD when the checkout is
// a repository, else "unknown" (the source digest still identifies the
// code).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the relative path and content of every .go,
// go.mod and .sh file under root, skipping vendor/ and hidden
// directories, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not belong to the build
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "vendor" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || strings.HasSuffix(name, ".sh") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// countsFile holds the committed exact counts of the development and
// held-out seeds, relative to the checkout root.
const countsFile = "perfbench/counts.json"

// countsKey names one workload, seed and GOMAXPROCS in countsFile: the
// pool's worker count, and with it the jobs it runs, follows
// GOMAXPROCS.
func countsKey(e *env, procs int) string {
	k := fmt.Sprintf("%s/seed=%d/gomaxprocs=%d", e.wl.name, e.seed, procs)
	if e.smoke {
		k += "/smoke"
	}
	return k
}

// checkCounts is the exact-count gate. The counts a traced run records
// (pool jobs per operation, simulated cycles and token passes, miss
// and unschedulable ratios, memo lookups, campaign executed/restored,
// DES events) are pure functions of the seed and the work the code
// does. For a key committed in countsFile every traced run must
// reproduce them exactly, so a change that alters the domain work
// fails until countsFile is regenerated (-update-counts) and the
// change says why. A key not committed there is recorded under
// build/counts per source tree on its first traced run, and every
// later run of that tree must reproduce it.
func checkCounts(e *env, source string, update bool) {
	committed := map[string]map[string]float64{}
	path := filepath.Join(e.root, countsFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &committed)
	}
	if err != nil && !(update && os.IsNotExist(err)) {
		e.led.fail("count gate: %v", err)
		return
	}
	key := countsKey(e, runtime.GOMAXPROCS(0))
	if update {
		committed[key] = e.counts
		out, err := json.MarshalIndent(committed, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(out, '\n'), 0o644)
		}
		if err != nil {
			e.led.fail("count gate: %v", err)
		}
		return
	}
	if want, ok := committed[key]; ok {
		compareCounts(e, want, countsFile+" "+key)
		return
	}
	dir := filepath.Join(e.build, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.led.fail("count gate: %v", err)
		return
	}
	local := filepath.Join(dir, strings.ReplaceAll(key, "/", "-")+"-"+source[:16]+".json")
	raw, err = os.ReadFile(local)
	if err != nil {
		if err := os.WriteFile(local, mustJSON(e.counts), 0o644); err != nil {
			e.led.fail("count gate: %v", err)
		}
		return
	}
	var prev map[string]float64
	if err := json.Unmarshal(raw, &prev); err != nil {
		e.led.fail("count gate: %s: %v", local, err)
		return
	}
	compareCounts(e, prev, "an earlier run of this tree")
}

// compareCounts fails the run once for every count that differs from,
// is missing from or is extra to want.
func compareCounts(e *env, want map[string]float64, from string) {
	for _, k := range sortedKeys(e.counts) {
		if w, ok := want[k]; !ok || w != e.counts[k] {
			e.led.fail("count gate: %s = %v, %s has %v", k, e.counts[k], from, w)
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := e.counts[k]; !ok {
			e.led.fail("count gate: %s missing, %s has %v", k, from, want[k])
		}
	}
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a
// process ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, io.ErrUnexpectedEOF
}
