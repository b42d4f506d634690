package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// cpuStat is the aggregate cpu line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal int64
}

func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		// user nice system idle iowait irq softirq steal [guest guest_nice]
		// guest time is already inside user, so only the first eight count.
		for i, f := range fields[1:9] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return cpuStat{}, err
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, sc.Err()
}

// stealShare is the share of CPU time the hypervisor stole between two
// samples.
func stealShare(a, b cpuStat) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// hostFacts describe the machine a run measured.
type hostFacts struct {
	NumCPU        int     `json:"nproc"`
	DriverProcs   int     `json:"driver_gomaxprocs"`
	TppdProcs     int     `json:"tppd_gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	StealShare    float64 `json:"cpu_steal_share"`
	MeasuredS     float64 `json:"measured_s"`
	TraceOverhead float64 `json:"trace_overhead_ratio,omitempty"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *run) hostFacts() hostFacts {
	return hostFacts{
		NumCPU:      runtime.NumCPU(),
		DriverProcs: runtime.GOMAXPROCS(0),
		TppdProcs:   r.tppdProc,
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		StealShare:  stealShare(r.before.stat, r.after.stat),
		MeasuredS:   r.measured.Seconds(),
	}
}
