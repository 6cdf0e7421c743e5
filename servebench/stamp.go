package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp identifies what produced a result and where. Results whose host
// fields differ are refused for comparison (see compareResults).
type stamp struct {
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty"`
	SourceHash  string `json:"source_sha256"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	QservdSHA   string `json:"qservd_sha256"`
	QservdFlags string `json:"qservd_flags"`
}

// hostKey is the part of the stamp that must match for two results to be
// comparable: a different toolchain, CPU or core count is a different
// experiment, whatever the commits.
func (s stamp) hostKey() string {
	return strings.Join([]string{s.GoVersion, s.CPUModel, strconv.Itoa(s.GOMAXPROCS), strconv.Itoa(s.NumCPU), s.QservdFlags}, "|")
}

func newStamp(root, qservd string) stamp {
	s := stamp{
		Commit:      "none",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		QservdSHA:   fileSHA(qservd),
		QservdFlags: "-data -addr",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			s.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	s.SourceHash = sourceHash(root)
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fileSHA(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sourceHash digests every .go file and go.mod under root (build outputs
// excluded), standing in for the commit where the tree is no repository.
func sourceHash(root string) string {
	var files []string
	filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(p, ".go") || info.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
