package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp is the environment a number was measured in; every result and
// every ledger carries one.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"repetitions"`
}

func (s stamp) String() string {
	return fmt.Sprintf("[commit %s, %s, GOMAXPROCS %d, nproc %d, %s, seed %d, reps %d]",
		s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPU, s.Seed, s.Reps)
}

func stampOf(seed int64, reps int) stamp {
	return stamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       seed,
		Reps:       reps,
	}
}

// commit asks git for HEAD; a checkout that is not a repository (the PR
// driver's) has none to name.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
