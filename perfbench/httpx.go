package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"copa/internal/api"
)

// loopback is one in-process HTTP server on a 127.0.0.1 listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.srv.Shutdown(ctx); err != nil {
		_ = lb.srv.Close() // drain timed out; force the connections shut
	}
	<-lb.done
}

// clients bounds the load generators: two client goroutines over at most
// two connections, sized for a two-core host.
const clients = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// reply is one /v1/allocate exchange as the client saw it.
type reply struct {
	status int
	body   []byte
}

func post(c *http.Client, url string, body []byte, binary bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/allocate", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	ct := api.ContentTypeJSON
	if binary {
		ct = api.ContentTypeBinary
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Accept", ct)
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data}, nil
}

// decodeReply parses a 200 body in whichever codec it was requested.
func decodeReply(body []byte, binary bool) (api.AllocateResponse, error) {
	if binary {
		return api.DecodeResponseBinary(body)
	}
	var r api.AllocateResponse
	err := json.Unmarshal(body, &r)
	return r, err
}
