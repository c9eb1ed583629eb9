package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a reading of the process-wide counters the os.* layer
// metrics are deltas of. The benchmark runs one workload per process,
// so the deltas belong to that workload alone.
type procSnap struct {
	syscr, syscw int64 // read and write syscalls, from /proc/self/io
	ioOK         bool  // false when /proc/self/io is unreadable
	mallocs      uint64
	allocBytes   uint64
	gcPauseNs    uint64
	cpu          time.Duration // user + system
}

func readProc() procSnap {
	var s procSnap
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		cr, ok1 := procField(data, "syscr:")
		cw, ok2 := procField(data, "syscw:")
		s.syscr, s.syscw, s.ioOK = cr, cw, ok1 && ok2
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.allocBytes, s.gcPauseNs = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// procField returns the integer after key in a "key: value" listing.
func procField(data []byte, key string) (int64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseInt(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// procDelta accumulates procSnap differences over the measured rounds.
type procDelta struct {
	syscr, syscw, mallocs, allocBytes, gcPauseNs, cpuNs float64
	ioOK                                                bool
}

func (d *procDelta) add(before, after procSnap) {
	d.syscr += float64(after.syscr - before.syscr)
	d.syscw += float64(after.syscw - before.syscw)
	d.mallocs += float64(after.mallocs - before.mallocs)
	d.allocBytes += float64(after.allocBytes - before.allocBytes)
	d.gcPauseNs += float64(after.gcPauseNs - before.gcPauseNs)
	d.cpuNs += float64(after.cpu - before.cpu)
	d.ioOK = before.ioOK && after.ioOK
}

// layers writes the os.* metrics: what the measured rounds cost the
// operating system and the runtime per message moved. The syscall
// ratios are left out, not zeroed, where /proc/self/io is unreadable.
func (d procDelta) layers(out metrics, msgs float64, wall time.Duration) {
	if d.ioOK {
		out["os.read_syscalls_per_msg"] = ratio(d.syscr, msgs)
		out["os.write_syscalls_per_msg"] = ratio(d.syscw, msgs)
	}
	out["os.allocs_per_msg"] = ratio(d.mallocs, msgs)
	out["os.alloc_bytes_per_msg"] = ratio(d.allocBytes, msgs)
	out["os.cpu_ms_per_kmsg"] = ratio(d.cpuNs/1e6, msgs/1e3)
	out["os.gc_pause_ms_per_s"] = ratio(d.gcPauseNs/1e6, wall.Seconds())
}

// resetPeakRSS returns freed memory to the operating system and restarts
// the resident-set high-water mark from what is left (Linux: writing 5 to
// /proc/self/clear_refs), so that peakRSSMB reports the peak of what
// follows — the workload — and not of set-up, whose Duplicate would
// otherwise set the mark on every read workload. Where the mark cannot
// be reset it simply keeps counting from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb, _ := procField(data, "VmHWM:")
	return float64(kb) / 1024
}

// hostInfo describes where a run was measured; it goes into every
// detail line so numbers from different machines are not compared by
// accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"` // file-system magic of the data directory
}

func readHost(dataDir string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dataDir, &st) == nil {
		h.DataFS = "0x" + strconv.FormatInt(int64(st.Type), 16)
	}
	return h
}
