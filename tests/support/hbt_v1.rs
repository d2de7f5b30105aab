//! The HBT v1 twin of a recording. `home record` writes v2 only; a test
//! that pins, submits, cuts or pipes the v1 file it used to write rebuilds
//! that file here: the v2 stream's records, read back one at a time and
//! written again through the v1 writer. The seek index and the manifest are
//! the v2 writer's own and are left out; the v1 writer closes with its own
//! manifest.

use home::stream::{HbtReader, HbtRecord, HbtWriter};

/// The v1 stream carrying the same sections, events and incidents as the
/// v2 stream `v2`, byte for byte what `home record` wrote as v1.
pub fn v1_twin(v2: &[u8]) -> Vec<u8> {
    assert_eq!(v2.get(4), Some(&2), "a v2 recording");
    let mut reader = HbtReader::from_slice(v2).expect("a v2 recording");
    let mut writer = HbtWriter::new(Vec::new()).expect("header write");
    while let Some(record) = reader.next_record().expect("a well-formed recording") {
        match record {
            HbtRecord::Run { seed } => writer.begin_run(seed),
            HbtRecord::Event(event) => writer.write_event(&event),
            HbtRecord::Incident(incident) => writer.write_incident(&incident),
            HbtRecord::Index { .. } | HbtRecord::Manifest { .. } => Ok(()),
        }
        .expect("in-memory write");
    }
    let v1 = writer.finish().expect("in-memory write");
    assert_eq!(v1[4], 1, "a v1 stream");
    v1
}
