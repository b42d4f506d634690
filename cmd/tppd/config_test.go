package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tpp"
)

func TestValidateConfig(t *testing.T) {
	valid := daemonConfig{
		queueWait:  time.Second,
		sessionTTL: 30 * time.Minute,
		walCompact: 256,
		memBudget:  0,
		dataDir:    "/var/lib/tppd",
	}
	if err := validateConfig(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*daemonConfig)
		wantSub string
	}{
		{"negative queue-wait", func(c *daemonConfig) { c.queueWait = -time.Second }, "-queue-wait"},
		{"negative session-ttl", func(c *daemonConfig) { c.sessionTTL = -time.Minute }, "-session-ttl"},
		{"negative wal-compact", func(c *daemonConfig) { c.walCompact = -1 }, "-wal-compact"},
		{"negative mem-budget", func(c *daemonConfig) { c.memBudget = -1 }, "-mem-budget"},
		{"mem-budget below one session", func(c *daemonConfig) { c.memBudget = tpp.MinSessionBytes - 1 }, "empty session"},
		{"mem-budget without data-dir", func(c *daemonConfig) { c.memBudget = 1 << 20; c.dataDir = "" }, "-data-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := validateConfig(cfg)
			if err == nil {
				t.Fatalf("config %+v accepted, want error mentioning %q", cfg, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Disabled (0) budgets and TTLs stay valid, with or without a data
	// dir, and a budget of exactly one empty session is the floor, not an
	// error.
	edge := valid
	edge.memBudget = tpp.MinSessionBytes
	if err := validateConfig(edge); err != nil {
		t.Fatalf("budget at the one-session floor rejected: %v", err)
	}
	memOnly := valid
	memOnly.dataDir = ""
	if err := validateConfig(memOnly); err != nil {
		t.Fatalf("in-memory config without a budget rejected: %v", err)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"4k", 4 << 10, false},
		{"4K", 4 << 10, false},
		{"64m", 64 << 20, false},
		{"2G", 2 << 30, false},
		{" 512m ", 512 << 20, false},
		{"-1", -1, false}, // sign is validateConfig's job, not the parser's
		{"12x", 0, true},
		{"k", 0, true},
		{"12.5m", 0, true},
		{"9999999999g", 0, true}, // overflow
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseByteSize(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseByteSize(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
