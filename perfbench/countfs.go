package main

import (
	"strings"
	"sync/atomic"
	"time"

	"diffindex/internal/vfs"
)

// fileClass splits file traffic by what the store keeps in the file.
type fileClass int

const (
	classWAL   fileClass = iota // write-ahead log segments ("<region>/wal/...")
	classTable                  // SSTables ("<region>/<n>.sst")
	classOther
	numClasses
)

func classify(name string) fileClass {
	switch {
	case strings.Contains(name, "/wal/"):
		return classWAL
	case strings.HasSuffix(name, ".sst"):
		return classTable
	default:
		return classOther
	}
}

// ioCounts are the cumulative calls, bytes and busy time of one file class.
type ioCounts struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	syncs              atomic.Int64
	busyNs             atomic.Int64
}

// ioTotals is a plain copy of ioCounts, for taking differences.
type ioTotals struct {
	Reads, ReadBytes   int64
	Writes, WriteBytes int64
	Syncs              int64
	BusyNs             int64
}

func (t ioTotals) sub(o ioTotals) ioTotals {
	return ioTotals{t.Reads - o.Reads, t.ReadBytes - o.ReadBytes, t.Writes - o.Writes,
		t.WriteBytes - o.WriteBytes, t.Syncs - o.Syncs, t.BusyNs - o.BusyNs}
}

func (t ioTotals) add(o ioTotals) ioTotals {
	return ioTotals{t.Reads + o.Reads, t.ReadBytes + o.ReadBytes, t.Writes + o.Writes,
		t.WriteBytes + o.WriteBytes, t.Syncs + o.Syncs, t.BusyNs + o.BusyNs}
}

// countingFS is a vfs.FS that forwards every call to an inner FS and counts
// calls, bytes and the time spent inside them, split by file class. It is
// passed as diffindex.Options.BaseFS, so it sits under the cluster's
// latency model and sees exactly the I/O the store issues.
type countingFS struct {
	inner vfs.FS
	c     [numClasses]ioCounts
}

func newCountingFS(inner vfs.FS) *countingFS { return &countingFS{inner: inner} }

// all returns a copy of the counters of every class, indexed by fileClass.
func (f *countingFS) all() [numClasses]ioTotals {
	var out [numClasses]ioTotals
	for cl := range f.c {
		c := &f.c[cl]
		out[cl] = ioTotals{c.reads.Load(), c.readBytes.Load(), c.writes.Load(),
			c.writeBytes.Load(), c.syncs.Load(), c.busyNs.Load()}
	}
	return out
}

func (f *countingFS) busy(cl fileClass, start time.Time) {
	f.c[cl].busyNs.Add(int64(time.Since(start)))
}

func (f *countingFS) wrap(name string, file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{inner: file, fs: f, class: classify(name)}, nil
}

func (f *countingFS) Create(name string) (vfs.File, error) {
	defer f.busy(classify(name), time.Now())
	file, err := f.inner.Create(name)
	return f.wrap(name, file, err)
}

func (f *countingFS) Open(name string) (vfs.File, error) {
	defer f.busy(classify(name), time.Now())
	file, err := f.inner.Open(name)
	return f.wrap(name, file, err)
}

func (f *countingFS) Remove(name string) error {
	defer f.busy(classify(name), time.Now())
	return f.inner.Remove(name)
}

func (f *countingFS) Rename(oldName, newName string) error {
	defer f.busy(classify(newName), time.Now())
	return f.inner.Rename(oldName, newName)
}

func (f *countingFS) List(prefix string) ([]string, error) {
	defer f.busy(classOther, time.Now())
	return f.inner.List(prefix)
}

func (f *countingFS) Exists(name string) (bool, error) {
	defer f.busy(classify(name), time.Now())
	return f.inner.Exists(name)
}

type countingFile struct {
	inner vfs.File
	fs    *countingFS
	class fileClass
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Write(p)
	c := &f.fs.c[f.class]
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	c.busyNs.Add(int64(time.Since(start)))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.ReadAt(p, off)
	c := &f.fs.c[f.class]
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	c.busyNs.Add(int64(time.Since(start)))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	c := &f.fs.c[f.class]
	c.syncs.Add(1)
	c.busyNs.Add(int64(time.Since(start)))
	return err
}

func (f *countingFile) Size() (int64, error) { return f.inner.Size() }
func (f *countingFile) Close() error         { return f.inner.Close() }
