package tpp

import "errors"

// Sentinel errors for option and request validation. They are exported so
// that callers sitting at a protocol boundary (cmd/tppd maps them to HTTP
// 400) can distinguish caller mistakes from internal failures with
// errors.Is instead of string matching.
var (
	// ErrUnknownMethod reports a Method outside sgb/ct/wt/rd/rdt.
	ErrUnknownMethod = errors.New("tpp: unknown method")
	// ErrUnknownDivision reports a Division outside tbd/dbd.
	ErrUnknownDivision = errors.New("tpp: unknown budget division")
	// ErrNegativeBudget reports a budget below zero. (Zero is legal and
	// selects the critical budget k*.)
	ErrNegativeBudget = errors.New("tpp: negative budget")
	// ErrPatternFixed reports an attempt to change the motif pattern on a
	// per-Run basis: a Protector session is bound to one graph, target set
	// and pattern at construction, because its cached motif index is only
	// valid for that triple. Build a new session for a different pattern.
	ErrPatternFixed = errors.New("tpp: pattern is fixed at session construction")
	// ErrUnknownEngine reports an engine a session cannot run: any spelling
	// but indexed at a protocol boundary (ParseEngine), the retired names
	// lazy and recount included, and any engine but EngineIndexed passed to
	// WithEngine. Recount runs only through the free functions.
	ErrUnknownEngine = errors.New("tpp: unknown engine")
)
