// Fixture: the span-name schema as stair-obs declares it — a `names`
// module of string constants.
pub mod names {
    /// A span every fixture records.
    pub const LIVE_SPAN: &str = "fix.live";
    /// A second declared name.
    pub const OTHER_SPAN: &str = "fix.other";
    /// All declared names.
    pub const ALL: &[&str] = &[LIVE_SPAN, OTHER_SPAN];
}

pub fn span(_name: &str) {}
pub fn root_span(_name: &str) {}
