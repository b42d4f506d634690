package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
)

type opKind int

const (
	opCreate opKind = iota
	opDelta
	opProtect
	opDelete
	numOps
)

var opNames = [numOps]string{"create", "delta", "protect", "delete"}

// phase says which part of a run an op belongs to. Only measured ops count
// towards throughput, CPU, latencies and failures.
type phase int

const (
	phaseSetup phase = iota
	phaseMeasured
)

// opRec is one executed request.
type opRec struct {
	kind      opKind
	phase     phase
	status    int
	lat       time.Duration
	done      time.Time // when the response was fully read
	reqBytes  int
	respBytes int
	delta     *deltaOp
	full      bool        // protect: released graph requested
	out       *protectOut // protect: what the gate checks
}

// ok reports an acknowledged (2xx) request.
func (op *opRec) ok() bool { return op.status >= 200 && op.status < 300 }

// protectOut is the part of a protect response the correctness gate
// checks, kept compact because a run records tens of thousands.
type protectOut struct {
	protectors string // "u,v;u,v;..." in response order
	final      int    // final_similarity
	released   int    // released edges sent (-1 when omitted)
}

// sessionLog is one session's life as the server saw it, in order. Each
// session belongs to exactly one client, so its ops never overlap.
type sessionLog struct {
	idx   int
	in    *graphInput
	id    string
	ops   []opRec
	names []string   // current node labels (grows with added nodes)
	churn *gen.Churn // steady sessions: the delta generator
}

func newSessionLog(idx int, in *graphInput) *sessionLog {
	return &sessionLog{idx: idx, in: in, names: append([]string(nil), in.mirror.names...)}
}

// codecSample keeps the exact bytes of one exchange for codec timing.
type codecSample struct {
	kind      opKind
	req, resp []byte
}

// client is one closed-loop caller with its own keep-alive connection. It
// writes HTTP/1.1 requests on the connection directly because the load
// generator shares the cores with tppd: on steady, on a 2-vCPU host,
// net/http's client cost the load generator about 460 us of CPU per op
// against about 260 us this way.
type client struct {
	ctx     context.Context
	addr    string // host:port
	conn    net.Conn
	unwatch func() bool // stops closing conn when ctx is cancelled
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     bytes.Buffer
	keep    int // codec samples kept per op kind
	samples []codecSample
	kept    [numOps]int
	measure bool // record codec samples (measured phase only)
}

func newClient(ctx context.Context, base string, keep int) *client {
	return &client{ctx: ctx, addr: strings.TrimPrefix(base, "http://"), keep: keep}
}

func (c *client) close() {
	if c.conn != nil {
		c.unwatch()
		c.conn.Close()
		c.conn = nil
	}
}

func (c *client) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.unwatch = context.AfterFunc(c.ctx, func() { conn.Close() })
	c.br = bufio.NewReaderSize(conn, 64<<10)
	c.bw = bufio.NewWriterSize(conn, 64<<10)
	return nil
}

// retryWait is the pause before a 429'd request is sent again.
const retryWait = 5 * time.Millisecond

// requestTimeout bounds one exchange.
const requestTimeout = time.Minute

// exchange sends one request and returns its status, send time and the
// response body (valid until the next call). Transport failures, 5xx and
// 4xx other than 429 end the run; a 429 is returned for the caller to
// count and retry.
func (c *client) exchange(kind opKind, method, path string, body []byte) (int, time.Time, []byte, error) {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return 0, time.Time{}, nil, fmt.Errorf("%s: %w", opNames[kind], err)
		}
	}
	start := time.Now()
	if err := c.conn.SetDeadline(start.Add(requestTimeout)); err != nil {
		return 0, start, nil, fmt.Errorf("%s: %w", opNames[kind], err)
	}
	c.bw.WriteString(method)
	c.bw.WriteByte(' ')
	c.bw.WriteString(path)
	c.bw.WriteString(" HTTP/1.1\r\nHost: ")
	c.bw.WriteString(c.addr)
	c.bw.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
	c.bw.WriteString(strconv.Itoa(len(body)))
	c.bw.WriteString("\r\n\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, start, nil, fmt.Errorf("%s: sending: %w", opNames[kind], err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, start, nil, fmt.Errorf("%s: %w", opNames[kind], err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, start, nil, fmt.Errorf("%s: reading response: %w", opNames[kind], err)
	}
	if resp.Close {
		c.close()
	}
	out := c.buf.Bytes()
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusTooManyRequests {
		return resp.StatusCode, start, nil, fmt.Errorf("%s: status %d: %s", opNames[kind], resp.StatusCode, out)
	}
	if c.measure && resp.StatusCode < 300 && c.kept[kind] < c.keep {
		c.kept[kind]++
		c.samples = append(c.samples, codecSample{kind: kind, req: body, resp: bytes.Clone(out)})
	}
	return resp.StatusCode, start, out, nil
}

// do runs one session op to acknowledgement, logging every attempt; 429s
// are logged as failed attempts and the same request is sent again.
func (c *client) do(s *sessionLog, ph phase, kind opKind, method, path string, body []byte, fill func(*opRec, []byte) error) error {
	for {
		status, start, resp, err := c.exchange(kind, method, path, body)
		if err != nil {
			return err
		}
		done := time.Now()
		rec := opRec{kind: kind, phase: ph, status: status, lat: done.Sub(start), done: done,
			reqBytes: len(body), respBytes: len(resp)}
		if rec.ok() && fill != nil {
			if err := fill(&rec, resp); err != nil {
				return fmt.Errorf("%s: %w", opNames[kind], err)
			}
		}
		s.ops = append(s.ops, rec)
		if rec.ok() {
			return nil
		}
		time.Sleep(retryWait)
	}
}

func (c *client) create(s *sessionLog, ph phase) error {
	return c.do(s, ph, opCreate, http.MethodPost, "/v1/sessions", s.in.body, func(_ *opRec, resp []byte) error {
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &out); err != nil {
			return err
		}
		if out.ID == "" {
			return fmt.Errorf("create response without an id: %.200s", resp)
		}
		s.id = out.ID
		return nil
	})
}

// delta sends op and, once acknowledged, folds its added labels into the
// session's label table.
func (c *client) delta(s *sessionLog, ph phase, op deltaOp) error {
	names := append(s.names, op.labels...)
	body, err := op.wire(names)
	if err != nil {
		return err
	}
	d := op
	if err := c.do(s, ph, opDelta, http.MethodPost, "/v1/sessions/"+s.id+"/delta", body, func(r *opRec, _ []byte) error {
		r.delta = &d
		return nil
	}); err != nil {
		return err
	}
	s.names = names
	return nil
}

var (
	omitBody = []byte(`{"omit_released":true}`)
	fullBody = []byte(`{}`)
)

func (c *client) protect(s *sessionLog, ph phase, full bool) error {
	body := omitBody
	if full {
		body = fullBody
	}
	return c.do(s, ph, opProtect, http.MethodPost, "/v1/sessions/"+s.id+"/protect", body, func(r *opRec, resp []byte) error {
		r.full = full
		out, err := readProtect(resp, full)
		r.out = out
		return err
	})
}

func (c *client) remove(s *sessionLog, ph phase) error {
	return c.do(s, ph, opDelete, http.MethodDelete, "/v1/sessions/"+s.id, nil, nil)
}

// protectAnswer holds the fields of tppd's protect response that the
// gate checks. Released edges are only counted, so they are not decoded.
type protectAnswer struct {
	Protectors      [][2]string       `json:"protectors"`
	FinalSimilarity int               `json:"final_similarity"`
	ReleasedEdges   []json.RawMessage `json:"released_edges"`
}

// readProtect decodes what the gate checks from a protect response: the
// protector pairs in order, the final similarity and, when the released
// graph was asked for, its edge count (-1 otherwise).
func readProtect(resp []byte, full bool) (*protectOut, error) {
	var a protectAnswer
	if err := json.Unmarshal(resp, &a); err != nil {
		return nil, err
	}
	released := -1
	if full {
		released = len(a.ReleasedEdges)
	}
	return &protectOut{protectors: pairString(a.Protectors), final: a.FinalSimilarity, released: released}, nil
}

// pairString renders label pairs as "u,v;u,v", the form the gate compares.
func pairString(pairs [][2]string) string {
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p[0])
		b.WriteByte(',')
		b.WriteString(p[1])
	}
	return b.String()
}
