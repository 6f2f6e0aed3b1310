package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is the block printed with every result: enough to tell two
// result files from different machines or settings apart.
func environment(cfg Config, tmp string) map[string]string {
	env := map[string]string{
		"commit":     "unknown",
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"workers":    strconv.Itoa(pinnedProcs),
		"gogc":       "100",
		"tmp_fs":     filesystemOf(tmp),
		"seed":       strconv.FormatInt(cfg.Seed, 10),
		"seconds":    strconv.Itoa(cfg.Seconds),
		"scale":      strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
	}
	if v := os.Getenv("GOGC"); v != "" {
		env["gogc"] = v
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// filesystemOf names the filesystem type holding path, from the mount
// table; "unknown" where there is none to read.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	table, err := os.ReadFile("/proc/self/mountinfo") //nolint:ioboundary // environment block, not index data
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(table), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		left, right, ok := strings.Cut(line, " - ")
		fields := strings.Fields(left)
		if !ok || len(fields) < 5 {
			continue
		}
		mount := fields[4]
		under := abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")
		if under && len(mount) >= len(best) {
			best, fs = mount, strings.Fields(right)[0]
		}
	}
	return fs
}
