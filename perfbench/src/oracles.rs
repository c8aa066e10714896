//! Output oracles pinned in `oracles.json` (written by `perfbench pin`):
//! the `fig4a-full` CSV and manifest fingerprints, and for every
//! `serve-warm` request (keyed by request fingerprint) the normalized
//! manifest fingerprint and requested-point count of a cold local run.

use eco_core::events::Json;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The pinned `fig4a-full` output fingerprints.
#[derive(Debug, Clone, Default)]
pub struct Fig4aOracle {
    /// Fingerprint of the figure CSV.
    pub csv: String,
    /// Fingerprint of the figure manifest.
    pub manifest: String,
}

/// The pinned outcome of one `serve-warm` request.
#[derive(Debug, Clone, Default)]
pub struct ServeOracle {
    /// Manifest fingerprint without `engine_stats`.
    pub manifest: String,
    /// Points the search requested.
    pub requested: u64,
}

struct Pinned {
    fig4a: Fig4aOracle,
    serve: HashMap<u64, ServeOracle>,
}

fn pinned() -> &'static Pinned {
    static PINNED: OnceLock<Pinned> = OnceLock::new();
    PINNED.get_or_init(|| {
        let doc = Json::parse(include_str!("../oracles.json")).expect("oracles.json parses");
        let s = |path: &str| {
            doc.get_path(path)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut serve = HashMap::new();
        if let Some(Json::Obj(fields)) = doc.get("serve-warm") {
            for (fp, pin) in fields {
                let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16)
                    .expect("request fingerprint");
                let oracle = ServeOracle {
                    manifest: pin
                        .get("manifest")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    requested: pin.get("requested").and_then(Json::as_u64).unwrap_or(0),
                };
                serve.insert(fp, oracle);
            }
        }
        Pinned {
            fig4a: Fig4aOracle {
                csv: s("fig4a-full.csv"),
                manifest: s("fig4a-full.manifest"),
            },
            serve,
        }
    })
}

/// The pinned `fig4a-full` fingerprints.
pub fn fig4a_full() -> Fig4aOracle {
    pinned().fig4a.clone()
}

/// Pinned `serve-warm` outcomes by request fingerprint.
pub fn serve_warm() -> &'static HashMap<u64, ServeOracle> {
    &pinned().serve
}

/// Renders an oracle file.
pub fn render(fig4a: &Fig4aOracle, serve: &[(u64, ServeOracle)]) -> String {
    let mut s = Json::obj();
    for (fp, pin) in serve {
        s = s.field(
            &format!("{fp:#018x}"),
            Json::obj()
                .field("manifest", Json::str(&pin.manifest))
                .field("requested", Json::UInt(pin.requested)),
        );
    }
    Json::obj()
        .field(
            "fig4a-full",
            Json::obj()
                .field("csv", Json::str(&fig4a.csv))
                .field("manifest", Json::str(&fig4a.manifest)),
        )
        .field("serve-warm", s)
        .render()
}
