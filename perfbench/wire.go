package main

import (
	"bytes"
	"encoding/json"
	"time"
)

// Mirror wire types: the same fields and tags as tppd's request and
// response structs, so encoding/json does the same work on them.

type wireDataset struct {
	Name  string `json:"name"`
	Scale int    `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

type wireProtectRequest struct {
	Edges         [][2]string  `json:"edges,omitempty"`
	Dataset       *wireDataset `json:"dataset,omitempty"`
	Targets       [][2]string  `json:"targets,omitempty"`
	SampleTargets int          `json:"sample_targets,omitempty"`
	Pattern       string       `json:"pattern,omitempty"`
	Method        string       `json:"method,omitempty"`
	Division      string       `json:"division,omitempty"`
	Engine        string       `json:"engine,omitempty"`
	Budget        int          `json:"budget,omitempty"`
	Seed          int64        `json:"seed,omitempty"`
	Workers       int          `json:"workers,omitempty"`
	TimeoutMS     int64        `json:"timeout_ms,omitempty"`
	OmitReleased  bool         `json:"omit_released,omitempty"`
}

type wireDeltaRequest struct {
	Insert      [][2]string `json:"insert,omitempty"`
	Remove      [][2]string `json:"remove,omitempty"`
	AddNodes    []string    `json:"add_nodes,omitempty"`
	RemoveNodes []string    `json:"remove_nodes,omitempty"`
	AddTargets  [][2]string `json:"add_targets,omitempty"`
	DropTargets [][2]string `json:"drop_targets,omitempty"`
	TimeoutMS   int64       `json:"timeout_ms,omitempty"`
}

type wireSessionProtectRequest struct {
	Method       string `json:"method,omitempty"`
	Division     string `json:"division,omitempty"`
	Engine       string `json:"engine,omitempty"`
	Budget       *int   `json:"budget,omitempty"`
	Seed         *int64 `json:"seed,omitempty"`
	Workers      *int   `json:"workers,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	OmitReleased bool   `json:"omit_released,omitempty"`
}

type wireSessionResponse struct {
	ID            string      `json:"id"`
	Nodes         int         `json:"nodes"`
	Edges         int         `json:"edges"`
	Targets       [][2]string `json:"targets"`
	Pattern       string      `json:"pattern"`
	Created       time.Time   `json:"created"`
	Runs          int64       `json:"runs"`
	DeltasApplied int64       `json:"deltas_applied"`
	IndexBuilds   int         `json:"index_builds"`
}

type wireDeltaResponse struct {
	Inserted         int     `json:"inserted"`
	Removed          int     `json:"removed"`
	NodesAdded       int     `json:"nodes_added"`
	NodesRemoved     int     `json:"nodes_removed"`
	TargetsAdded     int     `json:"targets_added"`
	TargetsDropped   int     `json:"targets_dropped"`
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	Targets          int     `json:"targets"`
	Incremental      bool    `json:"incremental"`
	TouchedTargets   int     `json:"touched_targets"`
	KilledInstances  int     `json:"killed_instances"`
	DroppedInstances int     `json:"dropped_instances"`
	Instances        int     `json:"instances"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

type wireProtectResponse struct {
	Method            string      `json:"method"`
	Nodes             int         `json:"nodes"`
	Edges             int         `json:"edges"`
	Targets           [][2]string `json:"targets"`
	Budget            int         `json:"budget"`
	Protectors        [][2]string `json:"protectors"`
	InitialSimilarity int         `json:"initial_similarity"`
	FinalSimilarity   int         `json:"final_similarity"`
	FullProtection    bool        `json:"full_protection"`
	WarmStart         bool        `json:"warm_start"`
	SimilarityTrace   []int       `json:"similarity_trace"`
	ElapsedMS         float64     `json:"elapsed_ms"`
	ReleasedEdges     [][2]string `json:"released_edges,omitempty"`
}

// wireTypes returns fresh request and response values for an op kind
// (nil request for a bodiless delete).
func wireTypes(k opKind) (req, resp any) {
	switch k {
	case opCreate:
		return &wireProtectRequest{}, &wireSessionResponse{}
	case opDelta:
		return &wireDeltaRequest{}, &wireDeltaResponse{}
	case opProtect:
		return &wireSessionProtectRequest{}, &wireProtectResponse{}
	}
	return nil, &map[string]string{}
}

// codecTimes times tppd's JSON work on one recorded exchange: decoding
// the request as the handler does (strict decoder) and encoding the
// response as writeJSON does (two-space indent).
func codecTimes(s codecSample) (decode, encode time.Duration, err error) {
	req, resp := wireTypes(s.kind)
	if req != nil && len(s.req) > 0 {
		start := time.Now()
		dec := json.NewDecoder(bytes.NewReader(s.req))
		dec.DisallowUnknownFields()
		err = dec.Decode(req)
		decode = time.Since(start)
		if err != nil {
			return 0, 0, err
		}
	}
	if err := json.Unmarshal(s.resp, resp); err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	start := time.Now()
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	encode = time.Since(start)
	return decode, encode, err
}
