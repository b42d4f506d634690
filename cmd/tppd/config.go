package main

// Startup configuration validation. Flags that silently accepted garbage
// (negative waits, a memory budget too small to admit one session or with
// nowhere to spill) now fail fast with a clear error instead of producing a
// daemon that rejects, hangs or loses requests.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/tpp"
)

// daemonConfig is the subset of the flag set that needs cross-field
// validation before the server is built.
type daemonConfig struct {
	queueWait  time.Duration
	sessionTTL time.Duration
	walCompact int
	memBudget  int64 // resident session bytes; 0 = unlimited
	dataDir    string
}

// validateConfig rejects flag combinations that cannot serve: negative
// durations and counts, a -mem-budget so small it could not admit even one
// empty session (every create would 429 forever), and a -mem-budget
// without -data-dir (every spill would discard acked sessions).
func validateConfig(cfg daemonConfig) error {
	if cfg.queueWait < 0 {
		return fmt.Errorf("-queue-wait %s is negative; use 0 to queue until the request deadline", cfg.queueWait)
	}
	if cfg.sessionTTL < 0 {
		return fmt.Errorf("-session-ttl %s is negative; use 0 to disable idle eviction", cfg.sessionTTL)
	}
	if cfg.walCompact < 0 {
		return fmt.Errorf("-wal-compact %d is negative; use 0 for the default threshold", cfg.walCompact)
	}
	if cfg.memBudget < 0 {
		return fmt.Errorf("-mem-budget %d is negative; use 0 to disable the budget", cfg.memBudget)
	}
	if cfg.memBudget > 0 && cfg.memBudget < tpp.MinSessionBytes {
		return fmt.Errorf("-mem-budget %d is smaller than one empty session (%d bytes); every create would be rejected",
			cfg.memBudget, tpp.MinSessionBytes)
	}
	if cfg.memBudget > 0 && cfg.dataDir == "" {
		return fmt.Errorf("-mem-budget %d needs -data-dir: cold sessions spill to their files there", cfg.memBudget)
	}
	return nil
}

// parseByteSize parses a byte count with an optional binary suffix: plain
// digits, or digits followed by k/m/g (case-insensitive, KiB/MiB/GiB
// multiples). The empty string is 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte size %q: want digits with an optional k/m/g suffix", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}
