package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"time"
)

// fedProc is the parent's handle on a running federation process.
type fedProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	dec   *json.Decoder
	ready readyMsg
	done  chan struct{} // closed once cmd.Wait has returned
}

// liveFed is the federation process the watchdog kills if a run overstays.
var liveFed atomic.Pointer[fedProc]

// startFed launches this binary in -serve mode and waits for its ready
// line.
func startFed(shape fedShape, dataDir string, trace bool) (*fedProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sj, err := json.Marshal(shape)
	if err != nil {
		return nil, err
	}
	tr := 0
	if trace {
		tr = 1
	}
	cmd := exec.Command(exe, "-serve", "-shape", string(sj), "-dir", dataDir, "-trace", strconv.Itoa(tr))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting federation: %w", err)
	}
	p := &fedProc{cmd: cmd, stdin: stdin, dec: json.NewDecoder(stdout), done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	liveFed.Store(p)
	if err := p.recv(&p.ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("federation did not come up: %w", err)
	}
	return p, nil
}

func (p *fedProc) pid() int { return p.cmd.Process.Pid }

// recv decodes the next line the federation prints, killing it if none
// comes within a generous bound.
func (p *fedProc) recv(v any) error {
	ch := make(chan error, 1)
	go func() { ch <- p.dec.Decode(v) }()
	select {
	case err := <-ch:
		return err
	case <-time.After(60 * time.Second):
		p.kill()
		<-ch
		return fmt.Errorf("federation unresponsive")
	}
}

// call sends one command and decodes the reply into out.
func (p *fedProc) call(cmd string, out any) error {
	if _, err := fmt.Fprintln(p.stdin, cmd); err != nil {
		return fmt.Errorf("federation %s: %w", cmd, err)
	}
	if err := p.recv(out); err != nil {
		return fmt.Errorf("federation %s: %w", cmd, err)
	}
	return nil
}

// stop asks the federation to shut down and waits for it to exit,
// killing it if it does not within a bound.
func (p *fedProc) stop() {
	fmt.Fprintln(p.stdin, "quit")
	p.stdin.Close()
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.kill()
	}
	liveFed.CompareAndSwap(p, nil)
}

func (p *fedProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}
