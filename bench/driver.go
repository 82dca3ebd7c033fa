package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// driverConfig is a run of every workload.
type driverConfig struct {
	seed    uint64
	seconds float64
	scale   float64
	runs    int
	trace   bool
	outDir  string
}

// environment stamps a result file with where its numbers came from.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	When       string `json:"when"`
}

func stampEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// series is one end-to-end metric over a workload's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]value  `json:"per_layer,omitempty"`
}

// resultFile is what a run of every workload writes and -compare reads.
type resultFile struct {
	Environment environment      `json:"environment"`
	Seed        uint64           `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Runs        int              `json:"runs"`
	Scale       float64          `json:"scale"`
	Workloads   []workloadResult `json:"workloads"`
}

// runChild runs one workload once in a process of its own, so heap,
// GC state and the resident-set high-water mark start fresh, and
// parses the result line it ends with.
func runChild(exe string, dc driverConfig, w workload, trace bool, stdout, stderr io.Writer) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe,
		"-workload", w.Name,
		"-seed", strconv.FormatUint(dc.seed, 10),
		"-seconds", strconv.FormatFloat(dc.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(dc.scale, 'g', -1, 64),
		"-out", dc.outDir,
		"-trace", t)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s printed no result line: %w", w.Name, errors.Join(runErr, err))
	}
	return &res, nil
}

// runAll runs every workload dc.runs times, then once traced if asked,
// prints medians with min and max, and writes the result file.
func runAll(dc driverConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	file := resultFile{Environment: stampEnvironment(), Seed: dc.seed, Seconds: dc.seconds, Runs: dc.runs, Scale: dc.scale}
	ok := true
	for _, w := range workloads {
		wr := workloadResult{Name: w.Name, Correct: true, EndToEnd: make(map[string]series)}
		note := func(res *result) {
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
		}
		for r := 0; r < dc.runs; r++ {
			res, err := runChild(exe, dc, w, false, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			note(res)
			for name, v := range res.Metrics {
				s := wr.EndToEnd[name]
				s.Unit = v.Unit
				s.Values = append(s.Values, v.Value)
				wr.EndToEnd[name] = s
			}
		}
		for name, s := range wr.EndToEnd {
			s.Median, s.Min, s.Max = median(s.Values), minOf(s.Values), maxOf(s.Values)
			wr.EndToEnd[name] = s
		}
		if dc.trace {
			res, err := runChild(exe, dc, w, true, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			note(res)
			wr.PerLayer = res.Metrics
		}
		ok = ok && wr.Correct && wr.Failed == 0
		file.Workloads = append(file.Workloads, wr)
	}

	fmt.Fprintf(stdout, "\n%-18s %-16s %-10s %14s %14s %14s %3s\n", "workload", "metric", "unit", "median", "min", "max", "n")
	for _, wr := range file.Workloads {
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(stdout, "%-18s %-16s %-10s %14.4f %14.4f %14.4f %3d\n", wr.Name, d.Name, s.Unit, s.Median, s.Min, s.Max, len(s.Values))
		}
		fmt.Fprintf(stdout, "%-18s %-16s %-10s %14.6f   (%d failed of %d attempted, oracle %s)\n", wr.Name, "failed_share", "ratio",
			float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted, map[bool]string{true: "passed", false: "FAILED"}[wr.Correct])
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dc.outDir, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(dc.outDir, "result.json"))
	if !ok {
		return 1
	}
	return 0
}
