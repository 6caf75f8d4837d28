//! Seeded request streams. Each lane's stream is a pure function of the
//! seed and the lane number: the servers only ever see the generated
//! requests.

use memo_table::rng::SplitMix64;

/// The 20 artifact keys a hot server holds: 13 tables, 3 figures, the 3
/// canned sweeps of memo-load's mix and the region study.
pub const HOT_KEYS: [&str; 20] = [
    "/v1/table/1",
    "/v1/table/2",
    "/v1/table/3",
    "/v1/table/4",
    "/v1/table/5",
    "/v1/table/6",
    "/v1/table/7",
    "/v1/table/8",
    "/v1/table/9",
    "/v1/table/10",
    "/v1/table/11",
    "/v1/table/12",
    "/v1/table/13",
    "/v1/figure/2",
    "/v1/figure/3",
    "/v1/figure/4",
    "/v1/sweep?entries=8,16,32",
    "/v1/sweep?ways=1,2,4",
    "/v1/sweep",
    "/v1/region",
];

/// `serve_disk`'s read set: tables 1–4 at every `scale` from 1 to 64
/// except the server's own 16. Their renders are cheap and independent
/// of scale, so the set is large without costing setup time.
pub const READ_SET_LEN: usize = 4 * 63;

/// Entry counts a never-requested sweep draws its points from.
const MISS_SIZES: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];
/// Points per never-requested sweep.
const MISS_POINTS: u32 = 7;
/// Distinct never-requested sweeps: 8^7 = 2,097,152 entry lists.
pub const MISS_SPACE: u64 = 1 << (3 * MISS_POINTS);

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// `HOT_KEYS[i]`.
    Hot(usize),
    Healthz,
    Metrics,
    /// The `i`-th read-set key.
    Read(usize),
    /// The never-requested sweep with this code.
    SweepMiss(u64),
}

impl Target {
    pub fn path(self) -> String {
        match self {
            Target::Hot(i) => HOT_KEYS[i].to_string(),
            Target::Healthz => "/healthz".to_string(),
            Target::Metrics => "/metrics".to_string(),
            Target::Read(i) => read_key(i),
            Target::SweepMiss(code) => sweep_miss_path(code),
        }
    }
}

/// The `i`-th read-set key, `i < READ_SET_LEN`.
pub fn read_key(i: usize) -> String {
    let table = 1 + i % 4;
    let mut scale = 1 + i / 4;
    if scale >= 16 {
        scale += 1;
    }
    format!("/v1/table/{table}?scale={scale}")
}

/// The table number behind read-set key `i`.
pub fn read_table(i: usize) -> usize {
    1 + i % 4
}

/// The sweep whose entry list spells `code` in base 8. Distinct codes
/// below [`MISS_SPACE`] give distinct lists, so distinct cache keys.
pub fn sweep_miss_path(code: u64) -> String {
    let mut rest = code % MISS_SPACE;
    let mut entries = Vec::with_capacity(MISS_POINTS as usize);
    for _ in 0..MISS_POINTS {
        entries.push(MISS_SIZES[usize::try_from(rest % 8).expect("digit fits")].to_string());
        rest /= 8;
    }
    format!("/v1/sweep?entries={}", entries.join(","))
}

/// Which traffic mix a stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// memo-load's mix over the 20 hot keys plus probes.
    Hot,
    /// 75% uniform read-set reads, 25% never-requested sweeps.
    Disk,
}

/// One lane's request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    mix: Mix,
    rng: SplitMix64,
    lane: u64,
    lanes: u64,
    misses: u64,
    offset: u64,
}

/// Which stream of a run: the segment (one per fleet), whether it is the
/// traced repeat, and the lane.
#[derive(Debug, Clone, Copy)]
pub struct StreamId {
    pub segment: usize,
    pub traced: bool,
    pub lane: usize,
    pub lanes: usize,
}

impl Stream {
    /// A traced repeat issues the same requests as its untraced segment,
    /// except the sweep misses, which must stay never-requested on the
    /// fleet that serves both.
    pub fn new(mix: Mix, seed: u64, id: StreamId) -> Stream {
        let root = SplitMix64::new(seed).split(&format!("segment-{}", id.segment));
        Stream {
            mix,
            rng: root.split(&format!("lane-{}", id.lane)),
            lane: id.lane as u64,
            lanes: id.lanes.max(1) as u64,
            misses: 0,
            // Lanes stride through one shared, seed-rotated sequence of
            // codes; the traced repeat takes the other half of the code
            // space, so no draw repeats within 2^20 per phase.
            offset: root.split("sweep-miss").next_below(MISS_SPACE)
                + u64::from(id.traced) * (MISS_SPACE / 2),
        }
    }

    pub fn next_target(&mut self) -> Target {
        match self.mix {
            Mix::Hot => self.hot(),
            Mix::Disk => {
                if self.rng.next_below(4) == 0 {
                    let index = self.misses * self.lanes + self.lane;
                    self.misses += 1;
                    Target::SweepMiss((self.offset + index) % MISS_SPACE)
                } else {
                    Target::Read(
                        usize::try_from(self.rng.next_below(READ_SET_LEN as u64)).expect("fits"),
                    )
                }
            }
        }
    }

    /// memo-load's weighted mix: tables dominate, a hot table repeats,
    /// figures and canned sweeps follow, and probes make up a fifth.
    fn hot(&mut self) -> Target {
        let pick = |rng: &mut SplitMix64, n: u64| usize::try_from(rng.next_below(n)).expect("fits");
        match self.rng.next_below(100) {
            0..=34 => Target::Hot(pick(&mut self.rng, 13)),
            35..=44 => Target::Hot(0),
            45..=59 => Target::Hot(13 + pick(&mut self.rng, 3)),
            60..=79 => Target::Hot(16 + pick(&mut self.rng, 3)),
            80..=89 => Target::Healthz,
            _ => Target::Metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn id(segment: usize, traced: bool, lane: usize) -> StreamId {
        StreamId {
            segment,
            traced,
            lane,
            lanes: 2,
        }
    }

    fn draw_id(mix: Mix, seed: u64, id: StreamId, n: usize) -> Vec<Target> {
        let mut s = Stream::new(mix, seed, id);
        (0..n).map(|_| s.next_target()).collect()
    }

    fn draw(mix: Mix, seed: u64, lane: usize, n: usize) -> Vec<Target> {
        draw_id(mix, seed, id(0, false, lane), n)
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for mix in [Mix::Hot, Mix::Disk] {
            assert_eq!(draw(mix, 7, 0, 500), draw(mix, 7, 0, 500));
            assert_ne!(
                draw(mix, 7, 0, 500),
                draw(mix, 8, 0, 500),
                "seeds must diverge"
            );
            assert_ne!(
                draw(mix, 7, 0, 500),
                draw(mix, 7, 1, 500),
                "lanes must diverge"
            );
            assert_ne!(
                draw(mix, 7, 0, 500),
                draw_id(mix, 7, id(1, false, 0), 500),
                "segments must diverge"
            );
        }
        // The traced repeat re-issues its segment's hot requests...
        assert_eq!(
            draw(Mix::Hot, 7, 0, 500),
            draw_id(Mix::Hot, 7, id(0, true, 0), 500)
        );
        // ...but never its sweep misses.
        let plain: HashSet<Target> = draw(Mix::Disk, 7, 0, 2000).into_iter().collect();
        let traced = draw_id(Mix::Disk, 7, id(0, true, 0), 2000);
        assert!(traced
            .iter()
            .all(|t| !matches!(t, Target::SweepMiss(_)) || !plain.contains(t)));
    }

    #[test]
    fn hot_mix_stays_on_the_hot_keys_and_probes() {
        let targets = draw(Mix::Hot, 3, 1, 5000);
        let mut seen = HashSet::new();
        for t in &targets {
            match t {
                Target::Hot(i) => assert!(*i < HOT_KEYS.len()),
                Target::Healthz | Target::Metrics => {}
                other => panic!("hot mix drew {other:?}"),
            }
            seen.insert(*t);
        }
        // memo-load's mix has no region request (set-up warms it), so
        // the other 19 hot keys and both probes show up.
        assert_eq!(seen.len(), HOT_KEYS.len() - 1 + 2);
        assert!(!seen.contains(&Target::Hot(HOT_KEYS.len() - 1)));
    }

    #[test]
    fn read_set_covers_tables_one_to_four_off_the_server_scale() {
        let keys: HashSet<String> = (0..READ_SET_LEN).map(read_key).collect();
        assert_eq!(keys.len(), READ_SET_LEN);
        for k in &keys {
            assert!(
                !k.ends_with("?scale=16"),
                "{k} collides with the server's scale"
            );
            let scale: usize = k.rsplit('=').next().unwrap().parse().unwrap();
            assert!((1..=64).contains(&scale));
        }
        assert_eq!(read_table(5), 2);
    }

    #[test]
    fn sweep_miss_keys_do_not_repeat_within_a_million_draws() {
        // Both lanes of both phases of one segment, as one traced fleet
        // draws them.
        let mut lanes: Vec<Stream> = (0..4)
            .map(|i| Stream::new(Mix::Disk, 1998, id(0, i / 2 == 1, i % 2)))
            .collect();
        let mut codes = HashSet::new();
        let mut lane = 0;
        while codes.len() < 1_000_000 {
            if let Target::SweepMiss(code) = lanes[lane].next_target() {
                assert!(
                    codes.insert(code),
                    "sweep miss code {code} repeated after {} draws",
                    codes.len()
                );
            }
            lane = (lane + 1) % lanes.len();
        }
        // Distinct codes spell distinct entry lists.
        let paths: HashSet<String> = codes
            .iter()
            .take(20_000)
            .map(|&c| sweep_miss_path(c))
            .collect();
        assert_eq!(paths.len(), 20_000);
    }

    #[test]
    fn sweep_miss_paths_parse_as_sweeps() {
        for code in [0, 1, 4095, MISS_SPACE - 1] {
            let path = sweep_miss_path(code);
            let list = path.strip_prefix("/v1/sweep?entries=").unwrap();
            let q = memo_experiments::runner::SweepQuery::parse(Some(list), None).unwrap();
            assert_eq!(q.entries.len(), MISS_POINTS as usize);
        }
    }
}
