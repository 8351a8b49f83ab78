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
	"strings"
)

// fingerprint identifies the host and code a report was measured on. Two
// reports are comparable only when every host field matches; Commit and
// Source identify the code under test and are expected to differ.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Commit, f.Source)
}

// hostDiff lists the host fields on which a and b differ.
func hostDiff(a, b fingerprint) []string {
	var d []string
	if a.CPU != b.CPU {
		d = append(d, fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU))
	}
	if a.NProc != b.NProc {
		d = append(d, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.Go != b.Go {
		d = append(d, fmt.Sprintf("go %s vs %s", a.Go, b.Go))
	}
	return d
}

// hostFingerprint describes this host and the sources under root.
func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out commit, or "none" outside a git work
// tree (a source export has no history; Source still identifies it).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and module files under root, skipping
// build and output directories, so reports from a source export still name
// the code they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// compareMain compares two reports metric by metric. It refuses reports
// whose host fingerprints differ: numbers from different machines are not
// a measurement of the code.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	if d := hostDiff(rs[0].Host, rs[1].Host); len(d) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench compare: REFUSED: host fingerprints differ: %s\n", strings.Join(d, "; "))
		return 3
	}
	if rs[0].Workload != rs[1].Workload || rs[0].Traced != rs[1].Traced {
		fmt.Fprintf(os.Stderr, "perfbench compare: REFUSED: %s (traced %v) vs %s (traced %v)\n",
			rs[0].Workload, rs[0].Traced, rs[1].Workload, rs[1].Traced)
		return 3
	}
	fmt.Fprintf(w, "host: %s\nbase: commit=%s source=%s\nnew:  commit=%s source=%s\n",
		rs[1].Host, rs[0].Host.Commit, rs[0].Host.Source, rs[1].Host.Commit, rs[1].Host.Source)
	names := make([]string, 0, len(rs[1].Metrics))
	for n := range rs[1].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, ok := rs[0].Metrics[n]
		m := rs[1].Metrics[n]
		if !ok || b.Value == 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-8s (no base)\n", n, m.Value, m.Unit)
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g -> %-14.6g %-8s new/base %.3f\n", n, b.Value, m.Value, m.Unit, m.Value/b.Value)
	}
	return 0
}
