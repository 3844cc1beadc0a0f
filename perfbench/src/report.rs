//! A flat JSON object writer (the benchmark has no serializer crate).

/// Builds one JSON object, key by key.
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<String>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Json::default()
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.raw(key, v);
    }

    /// A whole number.
    pub fn int(&mut self, key: &str, v: u64) {
        self.raw(key, v.to_string());
    }

    /// A whole number or `null`.
    pub fn opt_int(&mut self, key: &str, v: Option<u64>) {
        self.raw(key, v.map_or("null".into(), |v| v.to_string()));
    }

    /// A boolean.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.raw(key, v.to_string());
    }

    /// A string without characters that need escaping.
    pub fn str(&mut self, key: &str, v: &str) {
        debug_assert!(!v.contains(['"', '\\']), "unescaped string {v}");
        self.raw(key, format!("\"{v}\""));
    }

    /// An already-encoded JSON value.
    pub fn raw(&mut self, key: &str, v: String) {
        self.fields.push(format!("\"{key}\": {v}"));
    }

    /// The encoded object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}
