// Package xyz serializes simulation snapshots: extended-XYZ text (the
// interchange format visualization tools read) and a compact binary
// checkpoint format for exact restart, covering the I/O role XMD's
// own snapshot files play.
package xyz

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sdcmd/internal/box"
	"sdcmd/internal/md"
	"sdcmd/internal/vec"
)

// Snapshot is the serializable state of a system at one instant.
type Snapshot struct {
	// Comment is a free-text line stored in the file.
	Comment string
	// Element is the chemical symbol written per atom.
	Element string
	// Box is the periodic cell.
	Box box.Box
	// Pos and Vel are per-atom state; Vel may be empty (positions-only
	// snapshot).
	Pos, Vel []vec.Vec3
	// Mass is the per-atom mass.
	Mass float64
	// Step is the timestep counter at capture.
	Step int
}

// FromSystem captures a snapshot of a live system.
func FromSystem(s *md.System, element, comment string, step int) *Snapshot {
	snap := &Snapshot{
		Comment: comment,
		Element: element,
		Box:     s.Box,
		Pos:     append([]vec.Vec3(nil), s.Pos...),
		Vel:     append([]vec.Vec3(nil), s.Vel...),
		Mass:    s.Mass,
		Step:    step,
	}
	return snap
}

// ToSystem reconstructs a system from the snapshot.
func (s *Snapshot) ToSystem() (*md.System, error) {
	if len(s.Vel) != 0 && len(s.Vel) != len(s.Pos) {
		return nil, fmt.Errorf("xyz: %d velocities for %d positions", len(s.Vel), len(s.Pos))
	}
	sys, err := md.NewSystem(s.Box, len(s.Pos), s.Mass)
	if err != nil {
		return nil, err
	}
	copy(sys.Pos, s.Pos)
	copy(sys.Vel, s.Vel)
	return sys, nil
}

// WriteXYZ writes the snapshot in extended-XYZ form: the comment line
// carries the orthorhombic lattice and the step. Velocities are written
// as extra columns when present.
func WriteXYZ(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	l := s.Box.Lengths()
	hasVel := len(s.Vel) == len(s.Pos) && len(s.Vel) > 0
	props := "species:S:1:pos:R:3"
	if hasVel {
		props += ":vel:R:3"
	}
	// bufio.Writer errors are sticky: later writes no-op and Flush
	// reports the first failure, so per-line errors can be discarded.
	printf := func(format string, args ...any) { _, _ = fmt.Fprintf(bw, format, args...) }
	printf("%d\n", len(s.Pos))
	printf("Lattice=\"%.10g 0 0 0 %.10g 0 0 0 %.10g\" Properties=%s Step=%d Comment=%q\n",
		l[0], l[1], l[2], props, s.Step, s.Comment)
	for i, p := range s.Pos {
		if hasVel {
			v := s.Vel[i]
			printf("%s %.10g %.10g %.10g %.10g %.10g %.10g\n",
				s.Element, p[0], p[1], p[2], v[0], v[1], v[2])
		} else {
			printf("%s %.10g %.10g %.10g\n", s.Element, p[0], p[1], p[2])
		}
	}
	return bw.Flush()
}

// ReadXYZ parses one extended-XYZ frame written by WriteXYZ.
func ReadXYZ(r io.Reader) (*Snapshot, error) {
	if br, ok := r.(*bufio.Reader); ok {
		return readFrame(br)
	}
	return readFrame(bufio.NewReader(r))
}

// readLine reads one line (without the terminator) from br, reading
// exactly up to the newline so multi-frame streams are not over-read.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF && line != "" {
		err = nil // final unterminated line is fine
	}
	return strings.TrimRight(line, "\r\n"), err
}

func readFrame(br *bufio.Reader) (*Snapshot, error) {
	countLine, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("xyz: missing atom-count line: %w", io.ErrUnexpectedEOF)
	}
	n, err := strconv.Atoi(strings.TrimSpace(countLine))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("xyz: bad atom count %q", countLine)
	}
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("xyz: missing comment line: %w", io.ErrUnexpectedEOF)
	}
	snap := &Snapshot{Mass: md.FeMass}

	lx, ly, lz, perr := parseLattice(header)
	if perr != nil {
		return nil, perr
	}
	bx, err := box.New(vec.Zero, vec.New(lx, ly, lz))
	if err != nil {
		return nil, fmt.Errorf("xyz: lattice: %w", err)
	}
	snap.Box = bx
	if idx := strings.Index(header, "Step="); idx >= 0 {
		fields := strings.Fields(header[idx+len("Step="):])
		if len(fields) > 0 {
			snap.Step, _ = strconv.Atoi(fields[0])
		}
	}
	hasVel := strings.Contains(header, ":vel:")

	snap.Pos = make([]vec.Vec3, 0, n)
	if hasVel {
		snap.Vel = make([]vec.Vec3, 0, n)
	}
	for i := 0; i < n; i++ {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("xyz: truncated at atom %d of %d: %w", i, n, io.ErrUnexpectedEOF)
		}
		f := strings.Fields(line)
		want := 4
		if hasVel {
			want = 7
		}
		if len(f) < want {
			return nil, fmt.Errorf("xyz: atom line %d has %d fields, want %d", i, len(f), want)
		}
		if snap.Element == "" {
			snap.Element = f[0]
		}
		var p vec.Vec3
		for d := 0; d < 3; d++ {
			var perr error
			p[d], perr = strconv.ParseFloat(f[1+d], 64)
			if perr != nil {
				return nil, fmt.Errorf("xyz: atom %d coord: %w", i, perr)
			}
		}
		snap.Pos = append(snap.Pos, p)
		if hasVel {
			var v vec.Vec3
			for d := 0; d < 3; d++ {
				var perr error
				v[d], perr = strconv.ParseFloat(f[4+d], 64)
				if perr != nil {
					return nil, fmt.Errorf("xyz: atom %d velocity: %w", i, perr)
				}
			}
			snap.Vel = append(snap.Vel, v)
		}
	}
	return snap, nil
}

// parseLattice extracts the three diagonal lattice entries from the
// Lattice="..." attribute.
func parseLattice(header string) (lx, ly, lz float64, err error) {
	idx := strings.Index(header, `Lattice="`)
	if idx < 0 {
		return 0, 0, 0, fmt.Errorf("xyz: no Lattice attribute in %q", header)
	}
	rest := header[idx+len(`Lattice="`):]
	end := strings.Index(rest, `"`)
	if end < 0 {
		return 0, 0, 0, fmt.Errorf("xyz: unterminated Lattice attribute")
	}
	f := strings.Fields(rest[:end])
	if len(f) != 9 {
		return 0, 0, 0, fmt.Errorf("xyz: lattice needs 9 numbers, got %d", len(f))
	}
	get := func(k int) (float64, error) { return strconv.ParseFloat(f[k], 64) }
	if lx, err = get(0); err != nil {
		return
	}
	if ly, err = get(4); err != nil {
		return
	}
	lz, err = get(8)
	return
}
