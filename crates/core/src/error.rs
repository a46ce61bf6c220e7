//! Typed error taxonomy for the whole simulation stack.
//!
//! Every layer above `cimon-core` — the assembler, the hash generator,
//! the pipeline, the experiment engine, and the fault campaigns —
//! reports recoverable failures through one enum so callers match on a
//! single type instead of a per-crate zoo. The variants mirror the
//! failure domains of the harness itself rather than the monitored
//! program: a program that tampers with its own image is a *result*
//! (`RunOutcome::Detected`), not an error; a worker thread that panics
//! or a snapshot that fails its checksum is an error.
//!
//! The enum is deliberately `Clone + PartialEq + Eq` so poisoned
//! experiment rows can carry their error by value and tests can assert
//! on exact failures.

use std::fmt;

/// A recoverable failure anywhere in the simulation harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The assembler rejected a source program.
    Assembly {
        /// Human-readable assembler diagnostic.
        message: String,
    },
    /// Static hash generation failed (unbounded block, bad layout, ...).
    HashGen {
        /// Human-readable hash-generator diagnostic.
        message: String,
    },
    /// The pipeline fetched a word it could not decode.
    Decode {
        /// Address of the undecodable word.
        addr: u32,
        /// The raw instruction word.
        word: u32,
    },
    /// A memory access fell outside the simulated address space.
    MemoryBounds {
        /// The offending address.
        addr: u32,
    },
    /// A snapshot failed its integrity checksum on restore.
    SnapshotCorrupt {
        /// Checksum recorded when the snapshot was taken.
        expected: u32,
        /// Checksum recomputed over the snapshot at restore time.
        found: u32,
    },
    /// A worker thread panicked; the panic was caught and localised.
    WorkerPanic {
        /// Which pool the worker belonged to (`"sweep"`, `"campaign"`, ...).
        site: &'static str,
        /// Downcast panic payload, or a placeholder for non-string payloads.
        message: String,
    },
    /// A run exhausted its cycle budget (`max_cycles`).
    CycleBudget {
        /// The budget that was exhausted.
        max_cycles: u64,
    },
    /// A run exceeded its wall-clock deadline and was stopped by the
    /// watchdog.
    Watchdog {
        /// The deadline that was exceeded, in milliseconds.
        max_wall_ms: u64,
    },
    /// A configuration was rejected before any simulation ran.
    InvalidConfig {
        /// Human-readable validation diagnostic.
        message: String,
    },
    /// The serving layer's bounded admission queue was full: the
    /// request was shed with this explicit reason instead of queuing
    /// unboundedly.
    Overloaded {
        /// Requests already queued when this one arrived.
        queued: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The serving layer is draining: in-flight work finishes, but no
    /// new request is admitted.
    Draining,
    /// A request (or journal record) could not be parsed.
    Protocol {
        /// Human-readable parse diagnostic.
        message: String,
    },
    /// An operating-system I/O failure (socket, journal file, ...),
    /// stringified so the error stays `Clone + Eq`.
    Io {
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// A resume request named a sweep the server cannot continue: an
    /// unknown request key, or a row cursor past the rows that are
    /// durable. Deterministic — retrying the same resume cannot
    /// succeed; the client must restart the sweep from scratch.
    ResumeMismatch {
        /// Human-readable mismatch diagnostic.
        message: String,
    },
    /// The durable checkpoint store failed an I/O operation (creating,
    /// writing, or scanning a spill segment). Transient — the work is
    /// recomputable, and a retry may find the disk healthy again.
    CheckpointSpill {
        /// Rendered store diagnostic.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Assembly { message } => write!(f, "assembly failed: {message}"),
            SimError::HashGen { message } => write!(f, "hash generation failed: {message}"),
            SimError::Decode { addr, word } => {
                write!(f, "undecodable word {word:#010x} at {addr:#010x}")
            }
            SimError::MemoryBounds { addr } => {
                write!(f, "memory access out of bounds at {addr:#010x}")
            }
            SimError::SnapshotCorrupt { expected, found } => write!(
                f,
                "snapshot checksum mismatch: expected {expected:#010x}, found {found:#010x}"
            ),
            SimError::WorkerPanic { site, message } => {
                write!(f, "worker panic in {site} pool: {message}")
            }
            SimError::CycleBudget { max_cycles } => {
                write!(f, "cycle budget of {max_cycles} exhausted")
            }
            SimError::Watchdog { max_wall_ms } => {
                write!(f, "watchdog fired after {max_wall_ms} ms")
            }
            SimError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            SimError::Overloaded { queued, capacity } => {
                write!(f, "admission queue full: {queued} of {capacity}")
            }
            SimError::Draining => write!(f, "server draining: not admitting new requests"),
            SimError::Protocol { message } => write!(f, "protocol error: {message}"),
            SimError::Io { message } => write!(f, "i/o error: {message}"),
            SimError::ResumeMismatch { message } => write!(f, "resume mismatch: {message}"),
            SimError::CheckpointSpill { message } => {
                write!(f, "checkpoint spill failed: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Short machine-readable kind tag, stable across payload changes.
    /// Report writers use this for CSV/JSON status columns.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Assembly { .. } => "assembly",
            SimError::HashGen { .. } => "hash-gen",
            SimError::Decode { .. } => "decode",
            SimError::MemoryBounds { .. } => "memory-bounds",
            SimError::SnapshotCorrupt { .. } => "snapshot-corrupt",
            SimError::WorkerPanic { .. } => "worker-panic",
            SimError::CycleBudget { .. } => "cycle-budget",
            SimError::Watchdog { .. } => "watchdog",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::Overloaded { .. } => "overloaded",
            SimError::Draining => "draining",
            SimError::Protocol { .. } => "protocol",
            SimError::Io { .. } => "io",
            SimError::ResumeMismatch { .. } => "resume-mismatch",
            SimError::CheckpointSpill { .. } => "checkpoint-spill",
        }
    }

    /// Every kind tag [`SimError::kind`] can produce, in declaration
    /// order. Report writers and the serve journal key on these tags,
    /// so the list is pinned by a golden test: adding a variant without
    /// extending it (and the journal round-trip) fails loudly.
    pub const KINDS: [&'static str; 15] = [
        "assembly",
        "hash-gen",
        "decode",
        "memory-bounds",
        "snapshot-corrupt",
        "worker-panic",
        "cycle-budget",
        "watchdog",
        "invalid-config",
        "overloaded",
        "draining",
        "protocol",
        "io",
        "resume-mismatch",
        "checkpoint-spill",
    ];

    /// Whether a retry could plausibly succeed: transient failures
    /// (a panicking worker, a corrupted snapshot, an I/O hiccup) are
    /// worth one retry with backoff; deterministic rejections
    /// (`InvalidConfig`, `Protocol`, ...) never are. The serve layer's
    /// retry policy is exactly this predicate.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::WorkerPanic { .. }
                | SimError::SnapshotCorrupt { .. }
                | SimError::Io { .. }
                | SimError::CheckpointSpill { .. }
        )
    }

    /// Reconstruct an error from its `(kind, Display)` wire form — the
    /// exact pair report writers and the serve journal persist. This is
    /// a strict inverse of [`SimError::kind`] + [`std::fmt::Display`]
    /// for every variant, so any drift in either rendering breaks the
    /// round-trip test instead of silently corrupting stored journals.
    /// Returns `None` for unknown kinds or renderings that no longer
    /// match their variant's format.
    pub fn from_wire(kind: &str, rendered: &str) -> Option<SimError> {
        fn tail<'a>(rendered: &'a str, prefix: &str) -> Option<&'a str> {
            rendered.strip_prefix(prefix)
        }
        fn hex_u32(s: &str) -> Option<u32> {
            u32::from_str_radix(s.strip_prefix("0x")?, 16).ok()
        }
        /// Worker-pool sites are a closed set of static strings; wire
        /// data naming a pool this build does not know degrades to a
        /// recognizable placeholder instead of failing the whole row.
        /// `"splice"` names a pool earlier builds had; it stays so rows
        /// they wrote still decode to the same site.
        fn intern_site(site: &str) -> &'static str {
            const SITES: [&str; 8] = [
                "sweep",
                "splice",
                "campaign",
                "campaign-rehash",
                "parallel-map",
                "serve",
                "serve-campaign",
                "chaos",
            ];
            SITES
                .into_iter()
                .find(|s| *s == site)
                .unwrap_or("unknown-pool")
        }
        match kind {
            "assembly" => Some(SimError::Assembly {
                message: tail(rendered, "assembly failed: ")?.to_string(),
            }),
            "hash-gen" => Some(SimError::HashGen {
                message: tail(rendered, "hash generation failed: ")?.to_string(),
            }),
            "decode" => {
                let rest = tail(rendered, "undecodable word ")?;
                let (word, addr) = rest.split_once(" at ")?;
                Some(SimError::Decode {
                    addr: hex_u32(addr)?,
                    word: hex_u32(word)?,
                })
            }
            "memory-bounds" => Some(SimError::MemoryBounds {
                addr: hex_u32(tail(rendered, "memory access out of bounds at ")?)?,
            }),
            "snapshot-corrupt" => {
                let rest = tail(rendered, "snapshot checksum mismatch: expected ")?;
                let (expected, found) = rest.split_once(", found ")?;
                Some(SimError::SnapshotCorrupt {
                    expected: hex_u32(expected)?,
                    found: hex_u32(found)?,
                })
            }
            "worker-panic" => {
                let rest = tail(rendered, "worker panic in ")?;
                let (site, message) = rest.split_once(" pool: ")?;
                Some(SimError::WorkerPanic {
                    site: intern_site(site),
                    message: message.to_string(),
                })
            }
            "cycle-budget" => Some(SimError::CycleBudget {
                max_cycles: tail(rendered, "cycle budget of ")?
                    .strip_suffix(" exhausted")?
                    .parse()
                    .ok()?,
            }),
            "watchdog" => Some(SimError::Watchdog {
                max_wall_ms: tail(rendered, "watchdog fired after ")?
                    .strip_suffix(" ms")?
                    .parse()
                    .ok()?,
            }),
            "invalid-config" => Some(SimError::InvalidConfig {
                message: tail(rendered, "invalid configuration: ")?.to_string(),
            }),
            "overloaded" => {
                let rest = tail(rendered, "admission queue full: ")?;
                let (queued, capacity) = rest.split_once(" of ")?;
                Some(SimError::Overloaded {
                    queued: queued.parse().ok()?,
                    capacity: capacity.parse().ok()?,
                })
            }
            "draining" => (rendered == "server draining: not admitting new requests")
                .then_some(SimError::Draining),
            "protocol" => Some(SimError::Protocol {
                message: tail(rendered, "protocol error: ")?.to_string(),
            }),
            "io" => Some(SimError::Io {
                message: tail(rendered, "i/o error: ")?.to_string(),
            }),
            "resume-mismatch" => Some(SimError::ResumeMismatch {
                message: tail(rendered, "resume mismatch: ")?.to_string(),
            }),
            "checkpoint-spill" => Some(SimError::CheckpointSpill {
                message: tail(rendered, "checkpoint spill failed: ")?.to_string(),
            }),
            _ => None,
        }
    }

    /// Build a [`SimError::WorkerPanic`] from a caught panic payload,
    /// downcasting the usual `&str` / `String` payloads and falling
    /// back to a placeholder for exotic ones.
    pub fn from_panic(site: &'static str, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SimError::WorkerPanic { site, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let e = SimError::SnapshotCorrupt {
            expected: 0xdead_beef,
            found: 0x0bad_f00d,
        };
        assert_eq!(
            e.to_string(),
            "snapshot checksum mismatch: expected 0xdeadbeef, found 0x0badf00d"
        );
        assert_eq!(e.kind(), "snapshot-corrupt");
    }

    /// One exemplar per variant, used by the golden-kind and wire
    /// round-trip tests below. Extending `SimError` without extending
    /// this list fails the `kind_tags_are_golden` assertion.
    fn exemplars() -> Vec<SimError> {
        vec![
            SimError::Assembly {
                message: "bad mnemonic `frobz`".into(),
            },
            SimError::HashGen {
                message: "text segment is empty".into(),
            },
            SimError::Decode {
                addr: 0x0040_0010,
                word: 0xdead_beef,
            },
            SimError::MemoryBounds { addr: 0x7fff_fffc },
            SimError::SnapshotCorrupt {
                expected: 0x1234_5678,
                found: 0x8765_4321,
            },
            SimError::WorkerPanic {
                site: "sweep",
                message: "chaos: injected panic at sweep[3]".into(),
            },
            SimError::CycleBudget { max_cycles: 60_000 },
            SimError::Watchdog { max_wall_ms: 1500 },
            SimError::InvalidConfig {
                message: "campaign needs target addresses".into(),
            },
            SimError::Overloaded {
                queued: 64,
                capacity: 64,
            },
            SimError::Draining,
            SimError::Protocol {
                message: "missing field `workload`".into(),
            },
            SimError::Io {
                message: "connection reset by peer".into(),
            },
            SimError::ResumeMismatch {
                message: "unknown request key 00000000deadbeef".into(),
            },
            SimError::CheckpointSpill {
                message: "scan failed: no space left on device".into(),
            },
        ]
    }

    #[test]
    fn kind_tags_are_golden() {
        // The golden list: every kind tag, in declaration order. Report
        // strings (`failed-<kind>`) and journal records key on these,
        // so any rename or addition must be deliberate and visible.
        let kinds: Vec<&str> = exemplars().iter().map(SimError::kind).collect();
        assert_eq!(kinds, SimError::KINDS);
        // No duplicates: each variant has a distinct tag.
        let mut dedup = kinds.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), SimError::KINDS.len());
    }

    #[test]
    fn wire_round_trips_every_variant() {
        for e in exemplars() {
            let rt = SimError::from_wire(e.kind(), &e.to_string());
            assert_eq!(rt.as_ref(), Some(&e), "wire round-trip for {}", e.kind());
        }
        // Unknown kinds and drifted renderings are rejected, not
        // misparsed.
        assert_eq!(SimError::from_wire("warp-core", "boom"), None);
        assert_eq!(
            SimError::from_wire("watchdog", "watchdog fired after ages"),
            None
        );
        // Unknown pool names degrade to a recognizable placeholder.
        let e = SimError::from_wire("worker-panic", "worker panic in future pool: x");
        assert!(
            matches!(
                e,
                Some(SimError::WorkerPanic {
                    site: "unknown-pool",
                    ..
                })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn transience_matches_the_retry_contract() {
        // WorkerPanic / SnapshotCorrupt / Io / CheckpointSpill retry
        // once; InvalidConfig, ResumeMismatch (and every other
        // deterministic rejection) never.
        for e in exemplars() {
            let expect = matches!(
                e,
                SimError::WorkerPanic { .. }
                    | SimError::SnapshotCorrupt { .. }
                    | SimError::Io { .. }
                    | SimError::CheckpointSpill { .. }
            );
            assert_eq!(e.is_transient(), expect, "{}", e.kind());
        }
        assert!(!SimError::ResumeMismatch {
            message: "row cursor past durable rows".into()
        }
        .is_transient());
    }

    #[test]
    fn panic_payloads_downcast() {
        let e = SimError::from_panic("sweep", &"boom");
        assert_eq!(
            e,
            SimError::WorkerPanic {
                site: "sweep",
                message: "boom".to_string()
            }
        );
        let e = SimError::from_panic("splice", &("dynamic".to_string()));
        assert_eq!(e.kind(), "worker-panic");
        let e = SimError::from_panic("campaign", &42_u32);
        assert!(
            matches!(e, SimError::WorkerPanic { message, .. } if message.contains("non-string"))
        );
    }
}
