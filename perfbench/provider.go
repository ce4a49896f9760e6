package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// providerJobs is how many times a traced serve-resident run releases the
// view with `pc privatize`; every release must be byte-identical.
const providerJobs = 2

// providerLayers measures the provider's side of the resident flow in a
// traced run: `pc privatize` (core.PrivatizeJob with the CLI defaults: p, b,
// 64 bins, 512-row chunks, GOMAXPROCS workers, a budget ledger) releasing
// the relation from a CSV, then the job's stages alone on the same input:
// CSV parse, the in-memory GRR kernel with the job's parameters, seed and
// workers, and CSV render. What the job spends beyond them is checkpoint
// commits, fsync, the input hash and finalize.
//
// The jobs are not an end-to-end workload: a job waits on ~1000 fsyncs,
// and fsync latency on a shared virtual disk swings too far between
// minutes for a steady figure.
func providerLayers(env *runEnv, rel *relation.Relation, params privacy.Params, seed int64, out *metricSet) error {
	tr := env.trace
	dir := filepath.Join(env.dir, "provider")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in := filepath.Join(dir, "in.csv")
	if err := csvio.WriteFile(in, rel); err != nil {
		return err
	}

	var wall, chunks []float64
	want := ""
	for j := 1; j <= providerJobs; j++ {
		view := filepath.Join(dir, fmt.Sprintf("view-%d.csv", j))
		job := &core.PrivatizeJob{
			In: in, Out: view, MetaPath: view + ".meta.json", LedgerPath: view + ".ledger.json",
			Params: params, Seed: seed, Tel: programTel(),
		}
		var res *core.PrivatizeResult
		var err error
		wall = append(wall, ms(tr.timed(0, uint64(j), "core.job", func() { res, err = job.Run() })))
		env.checked++
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: privatize:", err)
			env.failed++
			continue
		}
		for _, c := range res.ChunkStats {
			chunks = append(chunks, ms(c.Duration))
		}
		sum, lines, err := digest(view)
		if err != nil {
			return err
		}
		if want == "" {
			want = sum
		}
		if sum != want || res.Rows != rel.NumRows() || lines != rel.NumRows()+1 {
			fmt.Fprintf(os.Stderr, "perfbench: privatize: release %s with %d rows (%d lines), want %s with %d\n",
				sum, res.Rows, lines, want, rel.NumRows())
			env.failed++
		}
	}
	out.add("core.chunk_ms.p50", median(chunks), "ms")
	out.add("core.chunk_ms.p99", percentile(chunks, 0.99), "ms")

	probe := filepath.Join(dir, "probe.csv")
	var parsed, released *relation.Relation
	var err error
	read := tr.timed(0, 0, "csvio.read", func() { parsed, _, err = csvio.ReadFileWithReport(in, csvio.Options{}) })
	if err != nil {
		return err
	}
	priv := tr.timed(0, 0, "privacy.privatize", func() {
		released, _, err = privacy.PrivatizeParallel(seed, parsed, params, runtime.GOMAXPROCS(0))
	})
	if err != nil {
		return err
	}
	write := tr.timed(0, 0, "csvio.write", func() { err = csvio.WriteFile(probe, released) })
	if err != nil {
		return err
	}
	out.add("csvio.read_ms", ms(read), "ms")
	out.add("privacy.privatize_ms", ms(priv), "ms")
	out.add("csvio.write_ms", ms(write), "ms")
	out.add("core.unattributed_ms", median(wall)-ms(read)-ms(priv)-ms(write), "ms")
	return nil
}

// digest returns a file's SHA-256 and its line count.
func digest(path string) (string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	lines := 0
	buf := make([]byte, 1<<16)
	for {
		n, err := f.Read(buf)
		h.Write(buf[:n])
		lines += bytes.Count(buf[:n], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), lines, nil
}
