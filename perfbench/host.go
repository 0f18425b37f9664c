package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo fingerprints the machine and build a result came from, so
// rows from different hosts or builds are never compared.
type hostInfo struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name", "Model", "Hardware":
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
