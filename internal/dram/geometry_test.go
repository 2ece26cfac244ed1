package dram

import "testing"

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(32 << 20) // 32 MB test-scale rank
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if got := cfg.Capacity(); got != 32<<20 {
		t.Fatalf("Capacity = %d, want %d", got, 32<<20)
	}
	if cfg.ChipRowBytes() != 512 {
		t.Fatalf("ChipRowBytes = %d, want 512", cfg.ChipRowBytes())
	}
	if cfg.WordsPerChipRow() != 64 {
		t.Fatalf("WordsPerChipRow = %d, want 64", cfg.WordsPerChipRow())
	}
	if cfg.LinesPerRow() != 64 {
		t.Fatalf("LinesPerRow = %d, want 64", cfg.LinesPerRow())
	}
	if cfg.RowsPerBank != 1024 {
		t.Fatalf("RowsPerBank = %d, want 1024", cfg.RowsPerBank)
	}
	if cfg.TotalRows() != 8192 {
		t.Fatalf("TotalRows = %d, want 8192", cfg.TotalRows())
	}
}

func TestPaperScaleGeometry(t *testing.T) {
	// Table II: 32 GB, 8 banks, 4 KB rows. Section IV-B derives >8.3M
	// rows and a 512 KB per-bank-AR set size; check those numbers fall
	// out of the geometry.
	cfg := DefaultConfig(32 << 30)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper-scale config invalid: %v", err)
	}
	totalRows := cfg.TotalRows()
	if totalRows != 8*1024*1024 {
		t.Fatalf("TotalRows = %d, want 8Mi", totalRows)
	}
	// 32GB / (8192 ARs * 8 banks) = 512 KB per per-bank AR command.
	setBytes := cfg.Capacity() / int64(cfg.Timing.NumAutoRefresh) / int64(cfg.Banks)
	if setBytes != 512<<10 {
		t.Fatalf("per-bank AR set = %d bytes, want 512KiB", setBytes)
	}
	// ... which is 128 rows, the paper's per-AR refresh granularity.
	if rows := setBytes / int64(cfg.RowBytes); rows != 128 {
		t.Fatalf("rows per AR = %d, want 128", rows)
	}
}

func TestConfigValidateRejectsBadGeometry(t *testing.T) {
	base := DefaultConfig(32 << 20)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero banks", func(c *Config) { c.Banks = 0 }},
		{"zero rows", func(c *Config) { c.RowsPerBank = 0 }},
		{"zero row bytes", func(c *Config) { c.RowBytes = 0 }},
		{"zero cell group", func(c *Config) { c.CellGroupRows = 0 }},
		{"row not divisible by chips", func(c *Config) { c.RowBytes = 4100 }},
		{"rows not divisible by chips", func(c *Config) { c.RowsPerBank = 1021 }},
		{"line-unaligned row", func(c *Config) { c.RowBytes = 96 }},
		{"no retention window", func(c *Config) { c.Timing.TRET = 0 }},
		{"no AR budget", func(c *Config) { c.Timing.NumAutoRefresh = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid config %+v", cfg)
			}
		})
	}
}

func TestCellTypeInterleaving(t *testing.T) {
	cfg := DefaultConfig(64 << 20)
	cfg.CellGroupRows = 512
	for _, tc := range []struct {
		row  int
		want CellType
	}{
		{0, TrueCell}, {511, TrueCell}, {512, AntiCell}, {1023, AntiCell},
		{1024, TrueCell}, {1535, TrueCell}, {1536, AntiCell},
	} {
		if got := cfg.CellTypeOf(tc.row); got != tc.want {
			t.Errorf("CellTypeOf(%d) = %v, want %v", tc.row, got, tc.want)
		}
	}
}

func TestTimingTREFI(t *testing.T) {
	tm := DefaultTiming()
	// 32ms / 8192 = 3.9us in the extended range; 64ms gives the
	// textbook 7.8us of Figure 3.
	if got := tm.TREFI(); got != 32*Millisecond/8192 {
		t.Fatalf("TREFI = %d, want %d", got, 32*Millisecond/8192)
	}
	tm.TRET = TRETNormal
	if got := tm.TREFI(); got != 7812*Nanosecond { // 7.8us, truncated from 7812.5
		t.Fatalf("TREFI(64ms) = %dns, want 7812ns", got)
	}
}

func TestCellTypeChargeSemantics(t *testing.T) {
	// True cells: logical 1 is charged. Anti cells: logical 0 is charged.
	if TrueCell.ChargedBits(0xF0) != 0xF0 {
		t.Error("true-cell charged bits should equal the value")
	}
	if AntiCell.ChargedBits(0xF0) != ^uint64(0xF0) {
		t.Error("anti-cell charged bits should be the complement")
	}
	if TrueCell.DischargedWord() != 0 {
		t.Error("true-cell discharged word must read as zero")
	}
	if AntiCell.DischargedWord() != ^uint64(0) {
		t.Error("anti-cell discharged word must read as all ones")
	}
	// Decay always lands on the discharged pattern.
	if TrueCell.Decay(0xDEADBEEF) != 0 {
		t.Error("true-cell decay must read as zero")
	}
	if AntiCell.Decay(0xDEADBEEF) != ^uint64(0) {
		t.Error("anti-cell decay must read as all ones")
	}
}
