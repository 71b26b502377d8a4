package sim

import (
	"testing"
	"time"
)

// worldShape is the seed-derived part of a world that TestSeedShapes
// pins.
type worldShape struct {
	seed                  int64
	memoize               bool
	capacity              int64
	hitCostUS, fillCostUS int64
	remote                bool
	remoteCapacity        int64
	durable               bool
	clusterNodes          int
}

// recordedShapes is what NewWorld derived for seeds 1..64 while the
// write-back mode still drew its mode, flush period and dirty bound.
var recordedShapes = []worldShape{
	{1, true, 7683, 481, 518, true, 3851, true, 4},
	{2, false, 0, 440, 104, true, 0, false, 0},
	{3, true, 0, 250, 577, true, 4329, true, 3},
	{4, false, 6554, 137, 797, true, 732, true, 3},
	{5, false, 1816, 387, 266, false, 3050, false, 0},
	{6, true, 0, 222, 682, true, 0, false, 4},
	{7, false, 8195, 612, 308, true, 4399, false, 0},
	{8, false, 7776, 396, 226, true, 0, false, 0},
	{9, false, 0, 389, 645, false, 1449, false, 0},
	{10, false, 6747, 428, 744, false, 1419, true, 0},
	{11, true, 1365, 134, 505, true, 3774, false, 0},
	{12, true, 0, 650, 174, true, 2057, false, 0},
	{13, true, 4463, 294, 159, false, 955, true, 0},
	{14, false, 8029, 784, 176, true, 0, false, 0},
	{15, false, 0, 10, 455, true, 0, false, 0},
	{16, true, 0, 367, 465, true, 848, false, 0},
	{17, true, 5685, 456, 308, true, 3933, true, 0},
	{18, false, 1203, 562, 709, true, 0, false, 0},
	{19, false, 0, 623, 330, true, 0, true, 3},
	{20, false, 0, 277, 435, false, 0, false, 0},
	{21, true, 7991, 266, 540, true, 3556, false, 0},
	{22, true, 0, 595, 500, true, 4236, false, 2},
	{23, false, 6290, 300, 547, true, 0, true, 0},
	{24, false, 1679, 52, 592, true, 0, true, 0},
	{25, false, 5260, 398, 641, true, 0, false, 0},
	{26, true, 650, 533, 59, true, 0, true, 0},
	{27, true, 7512, 14, 135, true, 0, false, 0},
	{28, true, 3029, 630, 313, true, 3156, false, 0},
	{29, false, 0, 269, 336, true, 0, true, 3},
	{30, false, 1999, 87, 31, true, 0, false, 0},
	{31, true, 0, 340, 529, true, 3819, false, 0},
	{32, true, 4391, 345, 781, true, 4227, true, 2},
	{33, true, 0, 306, 18, false, 1776, false, 0},
	{34, false, 3345, 410, 691, false, 0, false, 0},
	{35, false, 0, 217, 753, true, 0, true, 0},
	{36, false, 0, 250, 27, true, 3124, true, 4},
	{37, true, 0, 343, 435, true, 2140, false, 0},
	{38, true, 551, 573, 413, true, 2972, true, 3},
	{39, false, 0, 254, 532, true, 0, false, 0},
	{40, false, 7921, 189, 579, false, 1703, false, 0},
	{41, true, 3439, 245, 80, true, 1048, true, 0},
	{42, true, 0, 350, 223, true, 4541, false, 0},
	{43, true, 0, 99, 631, true, 0, false, 0},
	{44, false, 5123, 480, 584, true, 0, false, 0},
	{45, false, 641, 760, 25, true, 0, true, 4},
	{46, true, 0, 451, 319, true, 0, false, 0},
	{47, true, 3660, 9, 543, true, 0, true, 2},
	{48, true, 6473, 129, 92, false, 0, false, 0},
	{49, false, 0, 584, 619, false, 0, false, 0},
	{50, false, 1380, 386, 535, true, 914, false, 4},
	{51, true, 0, 366, 364, true, 3208, true, 0},
	{52, true, 0, 576, 515, true, 2825, true, 2},
	{53, false, 3208, 301, 306, true, 855, false, 0},
	{54, false, 2790, 164, 139, true, 1772, true, 4},
	{55, false, 6371, 206, 56, false, 0, false, 0},
	{56, false, 1760, 326, 298, false, 694, false, 0},
	{57, true, 1502, 750, 355, true, 0, false, 2},
	{58, true, 4091, 199, 592, false, 3920, true, 0},
	{59, false, 0, 457, 239, false, 2606, false, 0},
	{60, false, 3046, 520, 318, false, 3952, false, 0},
	{61, false, 2787, 528, 775, true, 0, true, 4},
	{62, true, 0, 621, 105, false, 2996, false, 0},
	{63, false, 0, 334, 593, true, 0, false, 4},
	{64, false, 8504, 139, 286, true, 0, true, 3},
}

// TestSeedShapes pins the seed → world derivation: every seed must
// still denote the world it denoted before the write-back draws were
// retired. A retired draw that is dropped instead of discarded shifts
// every later draw, and this table catches it.
func TestSeedShapes(t *testing.T) {
	for _, want := range recordedShapes {
		w, err := NewWorld(Config{Seed: want.seed})
		if err != nil {
			t.Fatalf("seed %d: %v", want.seed, err)
		}
		got := worldShape{
			seed:           want.seed,
			memoize:        w.coreOpts.Memoize,
			capacity:       w.coreOpts.Capacity,
			hitCostUS:      int64(w.coreOpts.HitCost / time.Microsecond),
			fillCostUS:     int64(w.coreOpts.FillCost / time.Microsecond),
			remote:         w.remoteOn,
			remoteCapacity: w.remoteCap,
			durable:        w.durable,
		}
		if w.clusterOn {
			got.clusterNodes = len(w.clNodes)
		}
		w.Close()
		if got != want {
			t.Errorf("seed %d derives %+v, recorded %+v", want.seed, got, want)
		}
	}
}
