package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo fingerprints the machine a result was measured on, so that
// figures from two hosts are never read as one series.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func captureHost() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds returns the CPU time the process has used so far, user and
// system, over all its threads. The benchmark times with it rather than
// with the wall clock: on a shared virtual machine the hypervisor takes the
// CPU away for a varying share of the time (steal), which stretches wall
// time but not CPU time, while the garbage collector's work on other
// threads still counts.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's peak resident set size in MB (10^6
// bytes). Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
