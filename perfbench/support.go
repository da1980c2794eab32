package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"

	"repro/reactive"
)

// parallel runs f(0) … f(n-1) each in its own goroutine and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// failures counts failed operations and keeps the first few errors.
type failures struct {
	n     int64
	first []error
}

func (f *failures) add(err error) {
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, err)
	}
}

func (f *failures) merge(o *failures) {
	f.n += o.n
	for _, e := range o.first {
		if len(f.first) < 5 {
			f.first = append(f.first, e)
		}
	}
}

func (f *failures) messages() []string {
	ms := make([]string, len(f.first))
	for i, e := range f.first {
		ms[i] = e.Error()
	}
	return ms
}

// layerStats is one snapshot of the primitives' Stats; fields a workload
// does not use stay zero.
type layerStats struct {
	mp                      reactive.MapStats
	mutex, rw, counter, fop reactive.Stats
}

// switchCounts are the monotonic counters between two layerStats.
type switchCounts struct {
	Map           uint64 `json:"map"`
	MapGraces     uint64 `json:"map_graces"`
	MapQuiet      uint64 `json:"map_quiet_graces"`
	Mutex         uint64 `json:"mutex"`
	Counter       uint64 `json:"counter"`
	FetchOp       uint64 `json:"fetchop"`
	RWMutex       uint64 `json:"rwmutex"`
	RWReaders     uint64 `json:"rwmutex_readers"`
	RWGraces      uint64 `json:"rwmutex_graces"`
	RWQuietGraces uint64 `json:"rwmutex_quiet_graces"`
}

func (s layerStats) since(prev layerStats) switchCounts {
	c := switchCounts{
		Map:       s.mp.Switches - prev.mp.Switches,
		MapGraces: s.mp.Graces - prev.mp.Graces,
		MapQuiet:  s.mp.QuietGraces - prev.mp.QuietGraces,
		Mutex:     s.mutex.Switches - prev.mutex.Switches,
		Counter:   s.counter.Switches - prev.counter.Switches,
		FetchOp:   s.fop.Switches - prev.fop.Switches,
		RWMutex:   s.rw.Switches - prev.rw.Switches,
	}
	if s.rw.Readers != nil && prev.rw.Readers != nil {
		c.RWReaders = s.rw.Readers.Switches - prev.rw.Readers.Switches
		c.RWGraces = s.rw.Readers.Graces - prev.rw.Readers.Graces
		c.RWQuietGraces = s.rw.Readers.QuietGraces - prev.rw.Readers.QuietGraces
	}
	return c
}

func (c *switchCounts) add(o switchCounts) {
	c.Map += o.Map
	c.MapGraces += o.MapGraces
	c.MapQuiet += o.MapQuiet
	c.Mutex += o.Mutex
	c.Counter += o.Counter
	c.FetchOp += o.FetchOp
	c.RWMutex += o.RWMutex
	c.RWReaders += o.RWReaders
	c.RWGraces += o.RWGraces
	c.RWQuietGraces += o.RWQuietGraces
}

// residencyReport renders mode shares by primitive and mode name.
func residencyReport(r *residency) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, a := range r.ns {
		m := map[string]float64{}
		for mode := range a {
			if a[mode] > 0 {
				m[reactive.Mode(mode).String()] = r.share(name, reactive.Mode(mode))
			}
		}
		out[name] = m
	}
	return out
}

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// processCPUNs is the CPU time of every thread of the process, in
// nanoseconds (CLOCK_PROCESS_CPUTIME_ID). The kernel counts a thread's
// run time without the time the hypervisor stole from its vCPU, so on
// one busy thread this is the wall time a quiet host would show.
func processCPUNs() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}

// stealTicks is the CPU time the hypervisor has taken from this VM
// since boot, summed over CPUs, in 1/100 s ticks (the steal column of
// /proc/stat); 0 where it cannot be read, which marks every window clean.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// maxRSSMB is the process's peak resident set (VmHWM), in MiB.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// gitCommit reads the checked-out commit from .git without running git;
// "" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs") // absent: no commit to report
	for _, l := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(l, " "); ok && r == ref {
			return h
		}
	}
	return ""
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory, so a run names the code it measured even outside git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
