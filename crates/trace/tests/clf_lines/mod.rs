//! Common Log Format lines assembled from fragments, for the parser's
//! oracle and fuzz tests.
//!
//! The proptest shim only draws printable ASCII strings, so hostile
//! input is built here instead: every field has well-formed values and
//! the ones real logs and attackers produce (stray `"` and `[`,
//! Combined Log Format tails, `+200` statuses, `-` and oversized byte
//! counts, CR LF endings, dates that repeat, change, run backwards or
//! do not parse), joined by any whitespace `char::is_whitespace`
//! accepts, ASCII or not.

/// Choices [`line`] reads, one per fragment.
pub const CHOICES: usize = 14;

/// One field's values: the first `good` are well-formed, and three
/// choices in four take one of those, so about one line in five passes
/// the keep-filter.
struct Frag {
    good: usize,
    all: &'static [&'static str],
}

impl Frag {
    fn pick(&self, choice: u32) -> &'static str {
        let c = usize::try_from(choice).expect("u32 fits usize");
        let n = if c % 4 == 0 {
            self.all.len()
        } else {
            self.good
        };
        self.all[c / 4 % n]
    }
}

/// Field separators, and whitespace that `str::trim` and
/// `split_whitespace` treat as a space.
const SPACES: Frag = Frag {
    good: 1,
    all: &[
        " ", "  ", "\t", "\x0B", "\x0C", "\u{85}", "\u{A0}", "\u{3000}",
    ],
};

const HOSTS: Frag = Frag {
    good: 2,
    all: &["h", "client7", "h\"x", "[x", "\"", "1.2.3.4\u{A0}"],
};

const IDENTS: Frag = Frag {
    good: 1,
    all: &["-", "\"evil", "user[", "a]b", "\"GET /trap HTTP/1.0\""],
};

/// Date bodies. The good ones run backwards from `10:00:02` to
/// `10:00:01`, and picked at random they mostly repeat or change by a
/// second.
const DATES: Frag = Frag {
    good: 10,
    all: &[
        "01/Jan/2000:10:00:00 +0000",
        "01/Jan/2000:10:00:01 +0000",
        "01/Jan/2000:10:00:02 +0000",
        "01/Jan/2000:09:59:59 +0000",
        "01/Jan/2000:05:00:01 -0500",
        " 01/Jan/2000:10:00:01 +0000 ",
        "01/Jan/+2000:10:00:00 +0000",
        "01/Jan/1900:00:00:00 +0000",
        "31/Dec/9999:23:59:59 -2359",
        "01/Jan/0000:00:00:00 +2359",
        "01/Jan/10000:00:00:00 +0000",
        "01/Jan/99999999999999:00:00:00 +0000",
        "01/Jan/2000:-9223372036854775808:00:00 +0000",
        "01/Jan/-1:00:00:00 +0000",
        "01/Foo/2000:10:00:00 +0000",
        "32/Jan/2000:10:00:00 +0000",
        "01/Jan/2000:10:00:00 0000",
        "01/Jan/2000:10:00:00",
        "01/Jan/2000:10:00:00\u{A0}+0000",
    ],
};

const METHODS: Frag = Frag {
    good: 1,
    all: &[
        "GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE", "PATCH", "get",
        "FOO", "",
    ],
};

const PATHS: Frag = Frag {
    good: 6,
    all: &[
        "/a",
        "/b.html",
        "/c/d.gif",
        "/f1",
        "/[x]",
        "/\u{e9}",
        "/x\"y",
        "/a\u{A0}b",
        "/\u{3000}",
        "/a\x0Bb",
    ],
};

const PROTOS: Frag = Frag {
    good: 2,
    all: &["HTTP/1.0", "HTTP/1.1", "", "HTTP/1.0\" 200 9 \"x"],
};

const STATUSES: Frag = Frag {
    good: 2,
    all: &["200", "+200", "404", "304", "2000000", "abc", "-", ""],
};

const BYTES: Frag = Frag {
    good: 4,
    all: &[
        "5",
        "2048",
        "1048576",
        "9007199254740992",
        "-",
        "0",
        "+7",
        "",
        "18446744073709551615",
        "9007199254740993",
        "12x",
    ],
};

const TAILS: Frag = Frag {
    good: 2,
    all: &[
        "",
        " \"http://ref.example/\" \"Mozilla/4.08 [en] (Win98)\"",
        " \"-\" \"-\"",
        " 200 5",
    ],
};

const ENDINGS: Frag = Frag {
    good: 2,
    all: &["\n", "\r\n"],
};

/// One log line (with its line ending) from [`CHOICES`] choices.
pub fn line(c: &[u32]) -> String {
    assert_eq!(c.len(), CHOICES, "one choice per fragment");
    let sp = |i: usize| SPACES.pick(c[i]);
    let date = DATES.pick(c[4]);
    let date = match c[3] % 16 {
        0 => String::new(),
        1 => "[d]".to_string(),
        2 => format!("[{date}"),
        3 => format!("[[{date}]"),
        _ => format!("[{date}]"),
    };
    let (method, path, proto) = (METHODS.pick(c[6]), PATHS.pick(c[8]), PROTOS.pick(c[7]));
    let request = match c[5] % 16 {
        0 => format!("\"{method}"),
        1 => format!("\"junk\" \"{method}{}{path}\"", sp(1)),
        _ if proto.is_empty() => format!("\"{method}{}{path}\"", sp(1)),
        _ => format!("\"{method}{}{path}{}{proto}\"", sp(1), sp(2)),
    };
    format!(
        "{lead}{host}{s0}{ident}{s1}{user}{s2}{date}{s0}{request}{s1}{status}{s2}{bytes}{tail}{trail}{end}",
        lead = if c[0].is_multiple_of(5) { sp(0) } else { "" },
        host = HOSTS.pick(c[1]),
        ident = IDENTS.pick(c[2]),
        user = IDENTS.pick(c[2] / 64),
        status = STATUSES.pick(c[9]),
        bytes = BYTES.pick(c[10]),
        tail = TAILS.pick(c[11]),
        trail = if c[12].is_multiple_of(5) { sp(12) } else { "" },
        end = ENDINGS.pick(c[13]),
        s0 = sp(0),
        s1 = sp(1),
        s2 = sp(2),
    )
}

/// One piece of a fuzzed log: a fragment line, arbitrary bytes, or a
/// fragment line with one byte overwritten by an arbitrary one.
pub type Piece = (u8, Vec<u32>, Vec<u8>);

/// Concatenates `pieces` into a log. Kind `k % 8`: 0 is the raw bytes,
/// 1 the line with one byte replaced by the first raw byte, otherwise
/// the line as built.
pub fn log(pieces: &[Piece]) -> Vec<u8> {
    let mut out = Vec::new();
    for (kind, choices, raw) in pieces {
        let mut bytes = line(choices).into_bytes();
        match (kind % 8, raw.first()) {
            (0, _) => bytes.clone_from(raw),
            (1, Some(&b)) => {
                let at = usize::try_from(choices[0]).expect("u32 fits usize") % bytes.len();
                bytes[at] = b;
            }
            _ => {}
        }
        out.extend_from_slice(&bytes);
    }
    out
}
