package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// prom is one scrape of a Prometheus text exposition: sample value by
// series key ("name" or "name{labels}").
type prom map[string]float64

func parseProm(text []byte) prom {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// family sums every series of one metric name whose labels contain all of
// the given label pairs (each rendered as key="value").
func (p prom) family(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range p {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// scrapeSelf scrapes this process's default registry, where the in-process
// layers and the tcp coordinator count.
func scrapeSelf() prom {
	var b bytes.Buffer
	obs.Default.WritePrometheus(&b)
	return parseProm(b.Bytes())
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from the kernel.
func peakRSSMiB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS (the
// kernel's clear_refs "5"), so each episode reads its own peak.
func resetPeakRSS() {
	// Without it (old kernels) the reading stays the process-lifetime
	// peak, which is still a peak; nothing to report.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// childPIDs lists the live direct children of this process (the
// self-spawned tcp-mesh workers), read from the kernel's process table.
func childPIDs() []int {
	self := os.Getpid()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		blob, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Field 4 (ppid) follows the parenthesised command name.
		i := bytes.LastIndexByte(blob, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(blob[i+1:]))
		if len(f) > 1 && f[1] == strconv.Itoa(self) {
			out = append(out, pid)
		}
	}
	return out
}

// treeRSSMiB is the summed peak RSS of this process and its live children.
func treeRSSMiB() (float64, error) {
	t, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return 0, err
	}
	for _, pid := range childPIDs() {
		if r, err := peakRSSMiB(pid); err == nil {
			t += r
		}
	}
	return t, nil
}

// cpuTicks reads the aggregate CPU line of /proc/stat: total ticks and
// the ticks stolen by the hypervisor.
func cpuTicks() (total, steal float64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x6a656a63: "virtiofs",
		0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// envInfo is the environment record printed with every run.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	DataFS     string `json:"data_fs"`
	DataDir    string `json:"data_dir"`
}

func readEnv(dataDir string) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		L2:         "unknown",
		L3:         "unknown",
		Go:         runtime.Version(),
		Commit:     obs.Build().Revision,
		DataFS:     fsName(dataDir),
		DataDir:    dataDir,
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", i)
		level, err1 := os.ReadFile(dir + "/level")
		size, err2 := os.ReadFile(dir + "/size")
		if err1 != nil || err2 != nil {
			break
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			e.L2 = strings.TrimSpace(string(size))
		case "3":
			e.L3 = strings.TrimSpace(string(size))
		}
	}
	return e
}
