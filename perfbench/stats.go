package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile is the linear-interpolation quantile of xs (q in [0, 1]), the
// same definition as Python's statistics.quantiles with method "inclusive".
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB is the peak resident set size (VmHWM) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS, so the next
// reading is the peak of what ran in between rather than of the process's
// whole life. Kernels that refuse the write leave the lifetime peak.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0) // best effort, see above
}

// stealTicks sums the steal column of the aggregate cpu line of /proc/stat:
// time the hypervisor gave this machine's CPUs to someone else. A run whose
// steal grew a lot is a run whose timings are suspect.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// heapLiveMB reads the live heap as of the last GC.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / 1e6
}

// memCounters returns cumulative heap bytes allocated and GC cycles that the
// runtime started on its own (forced runtime.GC calls excluded).
func memCounters() (allocBytes uint64, autoGC uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC - ms.NumForcedGC
}

// digest folds labelled outputs into one hex string, in the given order.
type digest struct{ lines []string }

func (d *digest) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, l := range d.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
