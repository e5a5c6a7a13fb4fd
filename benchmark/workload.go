package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	slider "repro"
	"repro/internal/rdf"
	"repro/internal/server"
)

// workload is one set of inputs the benchmark runs. All four run the same
// six phases; they differ in data, fragment, API surface and durability.
type workload struct {
	name, why string
	family    string // generator: "bsbm" or "wikipedia"
	triples   int
	frag      slider.Fragment
	// durable roots the reasoner in a directory (slider.Open); fsync
	// syncs the log on every append; http drives it through an
	// in-process sliderd-style server on a loopback listener.
	durable, fsync, http bool
	// trickle and churn are those phases' batch and cycle counts at
	// -seconds = runSeconds, sized so each phase lasts 3 to 8 s here: a
	// retraction costs 3 ms under rhodf, 10 to 20 ms under RDFS on BSBM
	// and a quarter of a second on the category DAG.
	trickle, churn int
	// rate > 0 makes the trickle an open loop of that many batches a
	// second, timed from each batch's due time, with the query mix running
	// beside it on a second connection: a closed loop of one client that
	// pauses for think after every answer (without the pause it takes one
	// core of two and the writer measures its own backlog). At 0 both are
	// closed loops, one after the other.
	rate  int
	think time.Duration
	// schemaEvery > 0 makes every n-th churn cycle retract and re-assert
	// a subClassOf edge two levels below a root instead of the oldest
	// batch, so that pass's suspect set is a subtree.
	schemaEvery int
}

var workloads = []workload{
	{
		name: "bulk-rhodf", family: "bsbm", triples: 1_000_000, frag: slider.RhoDF, trickle: 1000, churn: 1000,
		why: "BSBM 1M under rhodf via library AddBatch: closure barely exceeds input, so dictionary, store insert and routing do the work and rules almost none",
	},
	{
		name: "deep-rdfs", family: "wikipedia", triples: 500_000, frag: slider.RDFS, trickle: 1000, churn: 20,
		why: "Wikipedia-style 500k under RDFS via library AddBatch: closure doubles the input over a deep category DAG, so rule joins and duplicate rejection dominate",
	},
	{
		name: "serve-durable", family: "bsbm", triples: 500_000, frag: slider.RDFS, trickle: 1000, churn: 300,
		durable: true, fsync: true, http: true, rate: 125, think: time.Millisecond,
		why: "BSBM 500k under RDFS over HTTP on a fsynced WAL with background checkpoints; queries run beside an open-loop trickle: parser, server, log, reads under writes",
	},
	{
		name: "retract-churn", family: "bsbm", triples: 600_000, frag: slider.RDFS, trickle: 1000, churn: 300,
		durable: true, schemaEvery: 10,
		why: "BSBM 600k under RDFS on a durable library reasoner whose every 10th churn retraction pulls a subClassOf edge: maintenance, removal, tombstones, compaction",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is the reasoner under test, opened the way sliderd opens it, plus
// the HTTP front when the workload has one.
type system struct {
	r   *slider.Reasoner
	dir string // where a durable one is rooted
	// http routes inserts, retractions and queries through the front.
	http bool

	front   *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	// One client per connection the issue allots: a writer and a reader.
	writer, reader *http.Client
}

func (w workload) options() []slider.Option {
	opts := []slider.Option{slider.WithRetraction(), slider.WithViewMaxAge(-1)}
	if w.fsync {
		opts = append(opts, slider.WithFsync())
	}
	return opts
}

// open builds the reasoner (recovering whatever dir already holds) and,
// when asked, the HTTP front on a loopback port; the workload's own traffic
// goes through the front only if the workload has that face.
func open(ctx context.Context, w workload, dir string, front bool) (*system, error) {
	s := &system{http: w.http && front, dir: dir}
	if w.durable {
		r, err := slider.Open(dir, w.frag, w.options()...)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
		s.r = r
		if err := r.Wait(ctx); err != nil {
			return nil, fmt.Errorf("replay %s: %w", dir, err)
		}
	} else {
		s.r = slider.New(w.frag, w.options()...)
	}
	if !front {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.r.Close(ctx)
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.front = server.New(s.r, server.Config{})
	s.httpSrv = &http.Server{Handler: s.front}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.writer = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	s.reader = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return s, nil
}

// close drains the front, stops the listener and closes the reasoner (a
// durable one takes its close-time checkpoint here).
func (s *system) close(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.front.Drain(ctx)
		err = errors.Join(err, s.httpSrv.Shutdown(ctx))
		if serr := <-s.served; serr != http.ErrServerClosed {
			err = errors.Join(err, serr)
		}
		s.writer.CloseIdleConnections()
		s.reader.CloseIdleConnections()
	}
	return errors.Join(err, s.r.Close(ctx))
}

// span names the span the traced run puts around one call of the workload's
// face: the server's when it goes over HTTP, else the layer's behind it.
func (s *system) span(library string) string {
	if s.http {
		return map[string]string{"reasoner.addbatch": "server.insert", "maintenance.retract": "server.retract"}[library]
	}
	return library
}

func (s *system) post(c *http.Client, path string, body []byte) ([]byte, error) {
	resp, err := c.Post(s.base+path, "application/n-triples", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// insert submits one batch and returns once it is acknowledged. body is the
// batch as N-Triples for the HTTP face, serialised here when nil.
func (s *system) insert(sts []rdf.Statement, body []byte) error {
	if !s.http {
		_, err := s.r.AddBatch(sts)
		return err
	}
	if body == nil {
		var err error
		if body, err = serialise(sts); err != nil {
			return err
		}
	}
	_, err := s.post(s.writer, "/v1/insert", body)
	return err
}

// retract removes explicit triples and reports the pass.
func (s *system) retract(ctx context.Context, sts []rdf.Statement) (slider.RetractStats, error) {
	if !s.http {
		return s.r.Retract(ctx, sts...)
	}
	body, err := serialise(sts)
	if err != nil {
		return slider.RetractStats{}, err
	}
	out, err := s.post(s.writer, "/v1/retract", body)
	if err != nil {
		return slider.RetractStats{}, err
	}
	var js struct {
		Retracted   int   `json:"retracted"`
		Suspects    int   `json:"suspects"`
		Rederived   int   `json:"rederived"`
		PrepareUS   int64 `json:"prepare_us"`
		ExclusiveUS int64 `json:"exclusive_us"`
		TwoPhase    bool  `json:"two_phase"`
	}
	if err := json.Unmarshal(out, &js); err != nil {
		return slider.RetractStats{}, fmt.Errorf("retract response: %w", err)
	}
	return slider.RetractStats{
		Retracted: js.Retracted, Suspects: js.Suspects, Rederived: js.Rederived,
		PrepareMicros: js.PrepareUS, ExclusiveMicros: js.ExclusiveUS, TwoPhase: js.TwoPhase,
	}, nil
}

// query runs one SELECT the way a client of this workload would and
// returns the number of rows.
func (s *system) query(ctx context.Context, text string) (int, error) {
	if s.http {
		return s.httpQuery(text)
	}
	return s.libraryQuery(ctx, text)
}

// httpQuery posts the query on the reader connection.
func (s *system) httpQuery(text string) (int, error) {
	out, err := s.post(s.reader, "/v1/query", []byte(text))
	if err != nil {
		return 0, err
	}
	// The NDJSON stream ends with a trailer carrying the row count and
	// any mid-stream error.
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var trailer struct {
		Done  bool   `json:"done"`
		Rows  int    `json:"rows"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done {
		return 0, fmt.Errorf("query trailer %q: %v", last, err)
	}
	if trailer.Error != "" {
		return 0, errors.New(trailer.Error)
	}
	return trailer.Rows, nil
}

// libraryQuery parses, plans and streams the query against a read session.
func (s *system) libraryQuery(ctx context.Context, text string) (int, error) {
	v, err := s.r.View(ctx)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	rows := 0
	err = v.SelectFunc(text, func(slider.Binding) bool { rows++; return true })
	return rows, err
}

// visiblePoll is how long visible waits before it looks again. A session
// opened while another caller's refresh is in flight is served the previous
// snapshot at once, so beside a concurrent reader the first look can come
// too early; without the pause the writer would spin on a core of two.
const visiblePoll = 100 * time.Microsecond

// visible blocks until a fresh read session contains the statement; each
// session it opens is a view.refresh span under parent.
func (s *system) visible(ctx context.Context, st rdf.Statement, rec *recorder, parent int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		id := rec.start(parent, "view.refresh")
		v, err := s.r.View(ctx)
		rec.end(id)
		if err != nil {
			return err
		}
		ok := v.Contains(st)
		v.Close()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%v never became visible", st)
		}
		time.Sleep(visiblePoll)
	}
}
