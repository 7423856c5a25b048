package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
)

// Client speaks the serve protocol over one connection. It is not safe
// for concurrent use — the protocol is strictly request/response per
// connection, so concurrent callers should each Dial their own.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a daemon address of the form "unix:/path/to.sock" or
// "tcp:host:port" (a bare path is treated as a unix socket).
func Dial(addr string) (*Client, error) {
	network, target := SplitAddr(addr)
	conn, err := net.Dial(network, target)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// SplitAddr resolves an address flag into a (network, address) pair for
// net.Dial / net.Listen.
func SplitAddr(addr string) (network, target string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	default:
		return "unix", addr
	}
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(req *Request) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if err := WriteFrame(c.bw, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *Client) recv() (*Response, error) {
	payload, err := ReadFrame(c.br, 0)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Run submits a run request and blocks until its done frame. Each
// streamed report is handed to onReport (may be nil) as it arrives —
// before the run finishes, for a leader; replayed in order, for a
// coalesced follower. The returned Done is non-nil whenever err is nil;
// callers decide how to treat non-OK statuses.
func (c *Client) Run(req *RunRequest, onReport func(ReportMsg)) (*Done, error) {
	if err := c.send(&Request{Type: TypeRun, Run: req}); err != nil {
		return nil, err
	}
	for {
		resp, err := c.recv()
		if err != nil {
			return nil, err
		}
		switch resp.Type {
		case TypeReport:
			if resp.Report != nil && onReport != nil {
				onReport(*resp.Report)
			}
		case TypeDone:
			if resp.Done == nil {
				return nil, fmt.Errorf("serve: done frame without body")
			}
			return resp.Done, nil
		default:
			return nil, fmt.Errorf("serve: unexpected response type %q during run", resp.Type)
		}
	}
}

// Stats fetches the service metrics and store snapshots.
func (c *Client) Stats() (*StatsPayload, error) {
	if err := c.send(&Request{Type: TypeStats}); err != nil {
		return nil, err
	}
	resp, err := c.recv()
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("serve: stats response without payload")
	}
	return resp.Stats, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	if err := c.send(&Request{Type: TypePing}); err != nil {
		return err
	}
	resp, err := c.recv()
	if err != nil {
		return err
	}
	if resp.Type != TypePong {
		return fmt.Errorf("serve: expected pong, got %q", resp.Type)
	}
	return nil
}

// Shutdown asks the daemon to drain and exit. The acknowledgement
// arrives before the drain completes; the daemon process exits once
// every in-flight request has been answered.
func (c *Client) Shutdown() error {
	if err := c.send(&Request{Type: TypeShutdown}); err != nil {
		return err
	}
	resp, err := c.recv()
	if err != nil {
		return err
	}
	if resp.Done == nil || resp.Done.Status != StatusOK {
		return fmt.Errorf("serve: shutdown not acknowledged")
	}
	return nil
}
