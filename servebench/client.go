package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client speaks qservd's HTTP/JSON protocol over keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// refusedError is a request the server did not answer: a non-2xx status
// or a failed exchange. It counts as a failed request; a reply that
// arrived malformed or wrong is a wrong answer instead.
type refusedError struct{ msg string }

func (e *refusedError) Error() string { return e.msg }

// post sends body and returns the response with a 2xx status; any other
// status is a refusedError carrying the body.
func (c *client) post(path string, body []byte) (*http.Response, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, &refusedError{err.Error()}
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, &refusedError{fmt.Sprintf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))}
	}
	return resp, nil
}

// call posts body and decodes the JSON reply into v, rejecting unknown
// fields and trailing data: a malformed reply is an error.
func (c *client) call(path string, body []byte, v interface{}) error {
	resp, err := c.post(path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: malformed reply: %w", path, err)
	}
	if dec.More() {
		return fmt.Errorf("%s: trailing data after reply", path)
	}
	return nil
}

func handleBody(h string) []byte { return []byte(`{"handle":` + strconv.Quote(h) + `}`) }

func (c *client) healthy() bool {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *client) prepare(text string) (string, error) {
	var r struct {
		Fingerprint string            `json:"fingerprint"`
		Handle      string            `json:"handle"`
		Engines     map[string]string `json:"engines"`
		Generation  uint64            `json:"generation"`
	}
	b, _ := json.Marshal(map[string]string{"query": text})
	if err := c.call("/v1/prepare", b, &r); err != nil {
		return "", err
	}
	if r.Handle == "" {
		return "", errors.New("/v1/prepare: reply without handle")
	}
	return r.Handle, nil
}

func (c *client) decide(h string) (bool, error) {
	var r struct {
		Answer     *bool  `json:"answer"`
		Generation uint64 `json:"generation"`
	}
	if err := c.call("/v1/decide", handleBody(h), &r); err != nil {
		return false, err
	}
	if r.Answer == nil {
		return false, errors.New("/v1/decide: reply without answer")
	}
	return *r.Answer, nil
}

func (c *client) count(h string) (int64, error) {
	var r struct {
		Count      string `json:"count"`
		Generation uint64 `json:"generation"`
	}
	if err := c.call("/v1/count", handleBody(h), &r); err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(r.Count, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("/v1/count: malformed count %q", r.Count)
	}
	return n, nil
}

type pageReply struct {
	Answers    [][]int64 `json:"answers"`
	Done       *bool     `json:"done"`
	Generation uint64    `json:"generation"`
	NextCursor string    `json:"next_cursor"`
}

func (c *client) page(h, cursor string, limit int) (*pageReply, error) {
	req := map[string]interface{}{"handle": h, "limit": limit}
	if cursor != "" {
		req["cursor"] = cursor
	}
	b, _ := json.Marshal(req)
	var r pageReply
	if err := c.call("/v1/enumerate", b, &r); err != nil {
		return nil, err
	}
	if r.Done == nil || len(r.Answers) > limit || (!*r.Done && r.NextCursor == "") {
		return nil, errors.New("/v1/enumerate: malformed page")
	}
	return &r, nil
}

// streamResult is one drained NDJSON stream: the answer count, the server's
// terminal count, and when the first and last answers arrived.
type streamResult struct {
	answers     int64
	final       int64
	first, last time.Time
}

var (
	answerPrefix = []byte(`{"answer":[`)
	answerSuffix = []byte("]}\n")
)

// stream drains a full enumeration. Every line must be an answer of the
// given arity or the terminal {"done":true,"count":n}; a truncated stream
// is an error.
func (c *client) stream(h string, arity int) (streamResult, error) {
	var res streamResult
	resp, err := c.post("/v1/enumerate", []byte(`{"handle":`+strconv.Quote(h)+`,"stream":true}`))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return res, fmt.Errorf("stream: unterminated after %d answers: %v", res.answers, err)
		}
		if bytes.HasPrefix(line, answerPrefix) {
			if !bytes.HasSuffix(line, answerSuffix) || bytes.Count(line, []byte(",")) != arity-1 {
				return res, fmt.Errorf("stream: malformed answer line %q", line)
			}
			now := time.Now()
			if res.answers == 0 {
				res.first = now
			}
			res.last = now
			res.answers++
			continue
		}
		var end struct {
			Done  bool   `json:"done"`
			Count *int64 `json:"count"`
		}
		if err := json.Unmarshal(line, &end); err != nil || !end.Done || end.Count == nil {
			return res, fmt.Errorf("stream: bad terminal record %q", bytes.TrimSpace(line))
		}
		res.final = *end.Count
		if res.final != res.answers {
			return res, fmt.Errorf("stream: %d answers but terminal count %d", res.answers, res.final)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return res, errors.New("stream: data after terminal record")
		}
		return res, nil
	}
}

func (c *client) mutate(m mutation) error {
	opName := "delete"
	if m.insert {
		opName = "insert"
	}
	body := fmt.Sprintf(`{"pred":%q,"op":%q,"tuple":[%d,%d]}`, relName(m.rel), opName, m.tuple[0], m.tuple[1])
	var r struct {
		Applied    *bool  `json:"applied"`
		Generation uint64 `json:"generation"`
	}
	if err := c.call("/v1/mutate", []byte(body), &r); err != nil {
		return err
	}
	if r.Applied == nil || !*r.Applied {
		return fmt.Errorf("/v1/mutate: %s %v on %s not applied", opName, m.tuple, relName(m.rel))
	}
	return nil
}

// stats fetches /v1/stats.
func (c *client) stats() (map[string]interface{}, error) {
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}
